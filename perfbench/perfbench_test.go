package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tinyScale keeps the tests' jobs short.
const tinyScale = 0.001

func tinyConfig(workload string) config {
	return config{workload: workload, seed: 3, seconds: 1, scale: tinyScale}
}

func TestWorkloadsCompleteAndPrintEveryMetric(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			out, err := run(tinyConfig(w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			checkMetrics(t, out.Metrics, endToEnd)
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	cfg := tinyConfig("fork-sweep")
	cfg.trace = true
	cfg.spansDir = t.TempDir()
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("failed=%d", out.Failed)
	}
	checkMetrics(t, out.Metrics, perLayer)
	for _, name := range []string{"kernel.snapshot_us", "kernel.restore_us", "cluster.barrier_round_us", "self.kernel_ms", "experiments.all_s"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(cfg.spansDir, "spans-fork-sweep.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\tkernel\tSnapshotMachine\t") {
		t.Error("span file has no SnapshotMachine span")
	}
}

// checkMetrics requires exactly the listed metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]value, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		} else if v.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
}

func TestCorruptedReferenceDigestCountsAsFailed(t *testing.T) {
	cfg := tinyConfig("fabric-flood")
	w, _ := findWorkload(cfg.workload)
	rep, err := measure(cfg, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("clean run failed %d ops: %v", rep.failed, rep.problems)
	}
	cfg.ref = rep.digests
	key := "s2/chaosflood-3"
	cfg.ref[key] = "0000000000000000"
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The corrupted key runs once per cycle; a one-cycle run fails
	// exactly that op.
	if out.Failed != 1 || out.Correct {
		t.Fatalf("failed=%d correct=%v, want one failed op", out.Failed, out.Correct)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1, 50, 1},
		{10, 50, 5},
		{20, 50, 10},  // nearest rank 10, ten samples beyond
		{21, 50, 11},  // p75 is rank 16, only five beyond
		{50, 80, 40},  // p80 is rank 40, ten beyond; p90 leaves five
		{100, 90, 90}, // p95 would leave five
		{200, 95, 190},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v := tail(xs)
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: p%g = %g, want p%g = %g", tc.n, pct, v, tc.pct, tc.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the registry must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	for _, m := range bf.EndToEnd {
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("%s %s %s %g", m.name, m.unit, m.better, m.bound))
	}
	for _, m := range bf.PerLayer {
		got = append(got, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayer {
		want = append(want, fmt.Sprintf("%s %s %s", m.name, m.unit, m.better))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json lists\n%s\nthe registry\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWriteReference regenerates ref/ at the default seed and the
// benchmark scale: PERFBENCH_WRITE_REF=1 go test -run TestWriteReference
func TestWriteReference(t *testing.T) {
	if os.Getenv("PERFBENCH_WRITE_REF") == "" {
		t.Skip("set PERFBENCH_WRITE_REF=1 to regenerate the reference digests")
	}
	for _, w := range workloadList {
		cfg := config{workload: w.name, seed: defaultSeed, seconds: 1, scale: benchScale}
		rep, err := measure(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d failed ops: %v", w.name, rep.failed, rep.problems)
		}
		keys := make([]string, 0, len(rep.digests))
		for k := range rep.digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, rep.digests[k])
		}
		if err := os.WriteFile(filepath.Join("ref", w.name+".txt"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPerLayerMetricsNameWhatTheyMove keeps the registry's record of
// each per-layer metric's effect pointing at real metrics and
// workloads.
func TestPerLayerMetricsNameWhatTheyMove(t *testing.T) {
	known := map[string]bool{"none": true}
	for _, m := range endToEnd {
		known[m.name] = true
	}
	places := map[string]bool{"all": true, "none": true, "traced run": true}
	for _, w := range workloadList {
		places[w.name] = true
	}
	for _, m := range perLayer {
		if !strings.HasPrefix(m.name, m.layer+".") && !strings.HasPrefix(m.name, "self."+m.layer+"_") {
			t.Errorf("%s: layer %q does not match its name", m.name, m.layer)
		}
		if !known[m.moves] {
			t.Errorf("%s: moves unknown metric %q", m.name, m.moves)
		}
		if !places[m.on] || !places[m.flat] {
			t.Errorf("%s: on %q / flat %q is not a workload", m.name, m.on, m.flat)
		}
	}
}
