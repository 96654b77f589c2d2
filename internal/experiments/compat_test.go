package experiments

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenDir is the repository's artifact golden directory, shared with
// the root package's TestDriverEquivalenceAllArtifacts. Both render at
// quick() options, so these replays read the same files.
const goldenDir = "../../testdata/golden"

// pr3Artifacts enumerates the cluster-family artifacts of the
// addressed-fabric refactor in fixed order. This used to be a map, so
// a multi-artifact failure reported ids in a different order every
// run; the slice pins one order for the replay test and for
// TestPR3ArtifactOrderIsPinned below.
var pr3Artifacts = []struct {
	id  string
	run func(Options) (*Figure, error)
}{
	{"cluster", ClusterFlood},
	{"multiflood", MultiAttackerFlood},
	{"swapflood", CrossMachineExceptionFlood},
}

func readGolden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestPR3ArtifactsReplayBitForBit pins the addressed-fabric refactor's
// compatibility bar: a router-free, tail-drop-only topology (every
// cluster-family artifact) renders byte-for-byte what the
// pre-refactor tree rendered. The goldens were first generated before
// the frame/routing/RED plumbing landed and have not changed since.
func TestPR3ArtifactsReplayBitForBit(t *testing.T) {
	o := quick()
	for _, a := range pr3Artifacts {
		want := readGolden(t, a.id)
		fig, err := a.run(o)
		if err != nil {
			t.Fatalf("%s: %v", a.id, err)
		}
		if got := fig.Render(); got != want {
			t.Errorf("%s diverged from its golden\n--- got ---\n%s--- want ---\n%s", a.id, got, want)
		}
	}
}

// TestPR3ArtifactOrderIsPinned is the determinism regression for the
// site the simlint mapiter analyzer flagged here: the artifact table
// must stay sorted and duplicate-free, and every entry must have a
// golden — so a rename cannot silently leave an artifact unreplayed.
func TestPR3ArtifactOrderIsPinned(t *testing.T) {
	ids := make([]string, len(pr3Artifacts))
	for i, a := range pr3Artifacts {
		ids[i] = a.id
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("pr3Artifacts ids %v are not sorted", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("pr3Artifacts has duplicate id %q", ids[i])
		}
	}
	for _, id := range ids {
		if _, err := os.Stat(filepath.Join(goldenDir, id+".golden")); err != nil {
			t.Errorf("%s: no golden: %v", id, err)
		}
	}
}

// TestPR4RouterFloodReplaysBitForBit pins the qdisc layer's
// compatibility bar one step further than the cluster-family goldens:
// the routerflood artifact — FIFO egress, instantaneous RED, idle-tick
// ack timeouts — renders byte-for-byte what the pre-qdisc tree
// rendered, before DRR, byte-accurate serialisation, EWMA RED, and the
// guest clock landed.
func TestPR4RouterFloodReplaysBitForBit(t *testing.T) {
	want := readGolden(t, "routerflood")
	fig, err := RouterFlood(quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.Render(); got != want {
		t.Errorf("routerflood diverged from its golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
