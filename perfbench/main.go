// Command perfbench is the simulator's benchmark: one seeded,
// closed-loop client runs a workload's ops one after another through
// the public APIs, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of its output:
//
//	perfbench --workload host-meter --seed 1 --seconds 20 --trace 0
//
// --seconds sizes the timed phase in whole passes of the workload, from
// each pass's host time on a 2-vCPU x86-64 reference host, so every run
// with the same arguments does exactly the same simulated work.
//
// The client runs on one thread (GOMAXPROCS 1): the collector then
// works on the client's own CPU, so each op pays for the garbage it
// makes, and load on the host's other CPUs moves the numbers less.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
)

// benchScale is the victim/attack scale every workload runs at:
// 1% of paper scale, the repository's benchmark scale.
const benchScale = 0.01

// defaultSeed is the seed the reference digests in ref/ are for.
const defaultSeed = 1

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

//go:embed ref
var refFS embed.FS

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	spansDir string
	// ref maps op keys to reference digests; nil checks none.
	ref map[string]string
}

// result is one op's harvest. parts are the op's observable outputs,
// digested after its time is taken.
type result struct {
	parts    []any
	counts   counts
	problems []string
}

// op is one timed unit of work: a job, a cluster scenario or a forked
// variant. prep, when set, runs first, inside the timed phase but
// outside the op's own time.
type op struct {
	key  string
	prep func(tr *tracer) (result, error)
	run  func(tr *tracer) (result, error)
}

// plan is a workload's set-up output: one cycle of ops, which the
// timed phase runs in order, round and round, passOps per pass.
type plan struct {
	ops     []op
	passOps int
	// verify re-checks a sample of the ops' output digests after the
	// timed phase; nil when the workload has no such check.
	verify func(digests map[string]string) []string
	// eventDepth is the workload's typical pending-event count, the
	// queue depth the sim probe runs at.
	eventDepth int
}

// workload is a named input set. passSeconds is one pass's host time
// on the reference host.
type workload struct {
	name        string
	passSeconds float64
	setup       func(cfg config, tr *tracer) (*plan, error)
}

var workloadList = []workload{
	{"host-meter", 2.3, setupHostMeter},
	{"fabric-flood", 2.0, setupFabricFlood},
	{"fork-sweep", 0.044, setupForkSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passSeed derives pass i's simulation seed from the workload seed
// (splitmix64; never zero, which the simulator reads as "default").
func passSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) + 1
}

// report is one timed phase's outcome.
type report struct {
	attempted, failed int
	problems          []string
	setupS, wallS     float64
	passS             []float64 // host seconds of each pass
	opMs              []float64 // in run order
	passOps           int
	allocBytes        uint64
	allocs            uint64
	counts            counts
	digests           map[string]string
	eventDepth        int
	tr                *tracer
}

// passes is how many passes fill seconds on the reference host, and
// at least one cycle of p, so that every op's inputs run.
func (w workload) passes(seconds int, p *plan) int {
	return max(len(p.ops)/p.passOps, int(math.Round(float64(seconds)/w.passSeconds)))
}

// measure sets the workload up setupReps times, then runs the last
// plan's ops as the timed phase, traced when tr is non-nil.
func measure(cfg config, w workload, tr *tracer) (*report, error) {
	rep := &report{digests: map[string]string{}, tr: tr}
	var setups []float64
	var p *plan
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if p, err = w.setup(cfg, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	fmt.Printf("set-ups %.4f s\n", setups)
	rep.setupS = median(setups)
	rep.passOps = p.passOps
	rep.eventDepth = p.eventDepth

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passStart := start
	for i := 0; i < w.passes(cfg.seconds, p)*p.passOps; i++ {
		if i > 0 && i%p.passOps == 0 {
			rep.passS = append(rep.passS, time.Since(passStart).Seconds())
			passStart = time.Now()
		}
		rep.attempted++
		tr.setOp(i)
		if problems := rep.runOp(cfg, p.ops[i%len(p.ops)], tr); len(problems) > 0 {
			rep.failed++
			rep.problems = append(rep.problems, problems...)
		}
	}
	tr.setOp(-1)
	rep.passS = append(rep.passS, time.Since(passStart).Seconds())
	rep.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rep.allocBytes = after.TotalAlloc - before.TotalAlloc
	rep.allocs = after.Mallocs - before.Mallocs

	if p.verify != nil {
		if problems := p.verify(rep.digests); len(problems) > 0 {
			rep.failed += len(problems)
			rep.problems = append(rep.problems, problems...)
		}
	}
	return rep, nil
}

// runOp runs one op and returns what is wrong with its outputs: an
// error, a failed output check, a digest that differs from an earlier
// run of the same inputs, or one that differs from the reference.
func (rep *report) runOp(cfg config, o op, tr *tracer) []string {
	if o.prep != nil {
		r, err := o.prep(tr)
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", o.key, err)}
		}
		rep.counts.add(r.counts)
	}
	sp := tr.begin("bench", "op")
	t := time.Now()
	r, err := o.run(tr)
	d := time.Since(t)
	tr.end(sp)
	rep.opMs = append(rep.opMs, float64(d.Nanoseconds())/1e6)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", o.key, err)}
	}
	rep.counts.add(r.counts)
	problems := r.problems
	sum := digest(r.parts...)
	if prev, ok := rep.digests[o.key]; ok && prev != sum {
		problems = append(problems, fmt.Sprintf("%s: digest %s differs from an earlier run of the same inputs (%s)", o.key, sum, prev))
	}
	rep.digests[o.key] = sum
	if cfg.ref != nil {
		if want, ok := cfg.ref[o.key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: no reference digest", o.key))
		} else if want != sum {
			problems = append(problems, fmt.Sprintf("%s: digest %s, reference %s", o.key, sum, want))
		}
	}
	return problems
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues are the end-to-end metrics of an untraced run.
func endToEndValues(rep *report) (map[string]value, string) {
	pct, tailMs, groups, groupOps := groupedTail(rep.opMs, rep.passOps)
	vals := map[string]float64{
		"setup_s":    rep.setupS,
		"wall_s":     rep.wallS,
		"op_p50_ms":  median(rep.opMs),
		"op_tail_ms": tailMs,
		"vsec_per_s": rep.counts.busySeconds() / rep.wallS,
		"alloc_mb":   float64(rep.allocBytes) / 1e6,
		"allocs_k":   float64(rep.allocs) / 1e3,
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
	}
	note := fmt.Sprintf("op_tail_ms is p%g of each group of %d ops (%d beyond it), median over %d groups; failed_frac %g",
		pct, groupOps, groupOps-rank(pct, groupOps), groups, float64(rep.failed)/float64(rep.attempted))
	return out, note
}

// perLayerValues are the per-layer metrics of a traced run: exact
// counts, span means and self times, probes, per-artifact times and
// the tracing overhead against the untraced run.
func perLayerValues(traced, untraced *report, probes, artifacts map[string]float64) map[string]value {
	tr := traced.tr
	vals := map[string]float64{
		"kernel.host_us_per_vsec":  traced.wallS * 1e6 / traced.counts.busySeconds(),
		"kernel.snapshot_us":       tr.meanUs("SnapshotMachine"),
		"kernel.restore_us":        tr.meanUs("Pool.Get"),
		"cluster.barrier_round_us": tr.meanUs("Cluster.RunUntil"),
		"trace.overhead_frac":      (traced.wallS - untraced.wallS) / untraced.wallS,
	}
	for k, v := range traced.counts {
		vals[counterNames[k]] = float64(v)
	}
	if n := traced.counts[kImages]; n > 0 {
		vals[counterNames[kImageKB]] = float64(traced.counts[kImageKB]) / 1024 / float64(n)
	}
	for layer, d := range tr.selfByLayer() {
		vals["self."+layer+"_ms"] = float64(d.Nanoseconds()) / 1e6
	}
	for k, v := range probes {
		vals[k] = v
	}
	for k, v := range artifacts {
		vals[k] = v
	}
	out := map[string]value{}
	for _, m := range perLayer {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

// reproduceAll times every artifact once, sequentially.
func reproduceAll(tr *tracer, scale float64) (map[string]float64, error) {
	sp := tr.begin("artifacts", "ReproduceAllTimed")
	t := time.Now()
	runs, err := cpumeter.ReproduceAllTimed(nil, cpumeter.Options{Scale: scale, Parallelism: 1})
	all := time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"experiments.all_s": all.Seconds()}
	for _, r := range runs {
		out["experiments."+r.ID+"_s"] = r.Elapsed.Seconds()
	}
	return out, nil
}

// loadRef reads the reference digests for a workload.
func loadRef(name string) (map[string]string, error) {
	b, err := refFS.ReadFile("ref/" + name + ".txt")
	if err != nil {
		return nil, err
	}
	ref := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("ref/%s.txt: malformed line %q", name, line)
		}
		ref[f[0]] = f[1]
	}
	return ref, nil
}

// output is the last line a run prints.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run executes one invocation, printing progress lines and the
// counts to stdout before the result line.
func run(cfg config) (*output, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep, err := measure(cfg, w, nil)
	if err != nil {
		return nil, err
	}
	out := &output{Attempted: rep.attempted, Failed: rep.failed}
	for i, p := range rep.problems {
		if i == 20 {
			fmt.Printf("problem: ... %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Println("problem:", p)
	}
	e2e, note := endToEndValues(rep)
	fmt.Println(note)
	fmt.Printf("passes %d, pass_s min %.4f median %.4f max %.4f\n", len(rep.passS), slices.Min(rep.passS), median(rep.passS), slices.Max(rep.passS))
	printCounts(rep.counts)
	if !cfg.trace {
		out.Metrics = e2e
	} else {
		tr := newTracer()
		traced, err := measure(cfg, w, tr)
		if err != nil {
			return nil, err
		}
		out.Attempted += traced.attempted
		out.Failed += traced.failed
		probes, err := runProbes(tr, traced)
		if err != nil {
			return nil, err
		}
		artifacts, err := reproduceAll(tr, cfg.scale)
		if err != nil {
			return nil, err
		}
		out.Metrics = perLayerValues(traced, rep, probes, artifacts)
		if cfg.spansDir != "" {
			if err := tr.write(filepath.Join(cfg.spansDir, "spans-"+cfg.workload+".tsv")); err != nil {
				return nil, err
			}
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// printCounts prints the exact per-layer counts, one per line.
func printCounts(c counts) {
	for k, v := range c {
		fmt.Printf("count %s %d\n", counterNames[k], v)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: host-meter, fabric-flood or fork-sweep")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a separate traced run")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory a traced run writes its spans to")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = benchScale
	if _, ok := findWorkload(cfg.workload); !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if cfg.seed == defaultSeed {
		ref, err := loadRef(cfg.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg.ref = ref
	}
	runtime.GOMAXPROCS(1)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
