package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// TestFloodSpecsRejectBadDurations checks that every flood family
// rejects a negative, NaN or infinite duration, and a swap neighbour
// with less than a page of RAM, with an error naming the spec field.
// The options allow each machine a single step, so a spec that slips
// through to a simulation fails with a step-limit error instead.
func TestFloodSpecsRejectBadDurations(t *testing.T) {
	o := quick()
	o.MaxSteps = 1
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		run         func() error
	}{
		{"cluster negative flood", "FloodSeconds", func() error {
			s := quickClusterSpec(1000)
			s.Opts, s.FloodSeconds = o, -1
			_, err := RunCluster(s)
			return err
		}},
		{"cluster NaN flood", "FloodSeconds", func() error {
			s := quickClusterSpec(1000)
			s.Opts, s.FloodSeconds = o, nan
			_, err := RunCluster(s)
			return err
		}},
		{"multiflood negative flood", "FloodSeconds", func() error {
			s := quickMultiFloodSpec(2, "jiffy")
			s.Opts, s.FloodSeconds = o, -1
			_, err := RunMultiFlood(s)
			return err
		}},
		{"swapflood negative hog window", "HogSeconds", func() error {
			s := quickSwapFloodSpec("jiffy", true)
			s.Opts, s.HogSeconds = o, -1
			_, err := RunSwapFlood(s)
			return err
		}},
		{"swapflood infinite hog window", "HogSeconds", func() error {
			s := quickSwapFloodSpec("jiffy", true)
			s.Opts, s.HogSeconds = o, inf
			_, err := RunSwapFlood(s)
			return err
		}},
		{"swapflood sub-page neighbour", "NeighborMemBytes", func() error {
			s := quickSwapFloodSpec("jiffy", true)
			s.Opts, s.NeighborMemBytes = o, 1000
			_, err := RunSwapFlood(s)
			return err
		}},
		{"swapflood sub-page default neighbour", "PhysMemBytes", func() error {
			s := quickSwapFloodSpec("jiffy", true)
			s.Opts = o
			s.Opts.PhysMemBytes = 16 << 10
			_, err := RunSwapFlood(s)
			return err
		}},
		{"routerflood negative flood", "FloodSeconds", func() error {
			s := quickRouterFloodSpec(10_000)
			s.Opts, s.FloodSeconds = o, -1
			_, err := RunRouterFlood(s)
			return err
		}},
		{"fairflood infinite flood", "FloodSeconds", func() error {
			s := quickFairFloodSpec("fifo", 1000)
			s.Opts, s.FloodSeconds = o, -inf
			_, err := RunFairFlood(s)
			return err
		}},
		{"chaosflood NaN flood", "FloodSeconds", func() error {
			s := quickChaosSpec(ChaosSpec{})
			s.Flood.Opts, s.Flood.FloodSeconds = o, nan
			_, err := RunChaosFlood(s)
			return err
		}},
		{"chaosflood NaN crash", "RouterCrashSec", func() error {
			s := quickChaosSpec(ChaosSpec{RouterCrashSec: nan})
			s.Flood.Opts = o
			_, err := RunChaosFlood(s)
			return err
		}},
		{"chaosflood NaN restart", "RouterRestartSec", func() error {
			s := quickChaosSpec(ChaosSpec{RouterCrashSec: 0.01, RouterRestartSec: nan})
			s.Flood.Opts = o
			_, err := RunChaosFlood(s)
			return err
		}},
		{"chaosflood infinite crash", "RouterCrashSec", func() error {
			s := quickChaosSpec(ChaosSpec{RouterCrashSec: inf})
			s.Flood.Opts = o
			_, err := RunChaosFlood(s)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// TestPhysMemBelowOnePageRejected: RAM smaller than one page cannot
// hold a faulting page, so both machine builders refuse it up front,
// naming the field, before any machine is built or run.
func TestPhysMemBelowOnePageRejected(t *testing.T) {
	for _, b := range []uint64{1, 1000, mem.DefaultPageSize - 1} {
		o := quick()
		o.PhysMemBytes = b
		_, err := Run(RunSpec{Opts: o, Workload: "O"})
		if err == nil || !strings.Contains(err.Error(), "PhysMemBytes") {
			t.Errorf("Run with PhysMemBytes %d: err = %v, want one naming PhysMemBytes", b, err)
		}
		_, err = cluster.New(cluster.Config{Machines: []cluster.MachineSpec{
			{Name: "ok"},
			{Name: "tiny", Config: kernel.Config{PhysMemBytes: b}},
		}})
		if err == nil || !strings.Contains(err.Error(), "machine 1 PhysMemBytes") {
			t.Errorf("cluster with PhysMemBytes %d: err = %v, want one naming machine 1's PhysMemBytes", b, err)
		}
	}
	for _, b := range []uint64{0, mem.DefaultPageSize} {
		c, err := cluster.New(cluster.Config{Machines: []cluster.MachineSpec{{Config: kernel.Config{PhysMemBytes: b}}}})
		if err != nil {
			t.Fatalf("cluster with PhysMemBytes %d: %v", b, err)
		}
		c.Shutdown()
	}
}
