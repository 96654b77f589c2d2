package cpumeter

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds one byte-exact render per registered artifact.
const goldenDir = "testdata/golden"

// TestDriverEquivalenceAllArtifacts pins every registered artifact
// byte for byte. Each renders at small fixed options on the default
// flyweight resumable-step driver and must equal its golden under
// testdata/golden/<id>.golden; the compat goroutine driver must
// render the same bytes, since the two drivers share one guest
// source — the state machines — and any divergence between them is
// an engine bug, not a port bug. A golden with no artifact, or an
// artifact with no golden, fails the test. Regenerate the goldens
// only when an artifact's output is meant to change:
//
//	GOLDEN_GEN=1 go test -run TestDriverEquivalenceAllArtifacts .
func TestDriverEquivalenceAllArtifacts(t *testing.T) {
	opts := func(goroutines bool) Options {
		return Options{
			Seed:            7,
			Freq:            1_000_000_000,
			Scale:           0.01,
			PhysMemBytes:    32 << 20,
			GoroutineGuests: goroutines,
		}
	}
	ids := Experiments()
	flyweight, err := ReproduceAll(ids, opts(false))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GOLDEN_GEN") != "" {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if err := os.WriteFile(goldenPath(id), []byte(flyweight[i].Render()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	goroutine, err := ReproduceAll(ids, opts(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(flyweight) != len(ids) || len(goroutine) != len(ids) {
		t.Fatalf("lengths: flyweight=%d goroutine=%d want %d", len(flyweight), len(goroutine), len(ids))
	}
	for i, id := range ids {
		fw := flyweight[i].Render()
		gr := goroutine[i].Render()
		if fw == "" {
			t.Errorf("%s: empty render", id)
		}
		if fw != gr {
			t.Errorf("%s: drivers diverged\n--- flyweight ---\n%s--- goroutine ---\n%s", id, fw, gr)
		}
		want, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Errorf("%s: no golden: %v", id, err)
			continue
		}
		if fw != string(want) {
			t.Errorf("%s diverged from %s\n--- got ---\n%s--- want ---\n%s", id, goldenPath(id), fw, want)
		}
	}

	onDisk, err := filepath.Glob(filepath.Join(goldenDir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool, len(ids))
	for _, id := range ids {
		known[goldenPath(id)] = true
	}
	for _, path := range onDisk {
		if !known[path] {
			t.Errorf("%s matches no registered artifact", path)
		}
	}
}

func goldenPath(id string) string {
	return filepath.Join(goldenDir, id+".golden")
}
