package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"slices"

	"repro"
)

// Fork-sweep geometry, in virtual cycles. Each of forkLabs fork labs,
// seeded from the workload seed, is warmed to forkBarrier in set-up;
// a pass takes one lab's main machine through forkCheckpoints
// checkpoints forkStride apart. Each checkpoint forks one variant per
// rate that runs only forkWindow, so snapshot and restore stay a
// visible share of each op instead of being buried under a run to
// completion.
const (
	forkLabs        = 4
	forkRounds      = 1000
	forkBarrier     = cpumeter.Cycles(3_000_000_000)
	forkStride      = cpumeter.Cycles(20_000_000)
	forkWindow      = cpumeter.Cycles(2_000_000)
	forkCheckpoints = 128
	forkSamples     = 8
)

// forkRates are the flood rates variants re-arm after the fork.
var forkRates = []uint64{10_000, 20_000, 40_000, 80_000}

// forkLab is the state one lab's fork-sweep ops share: the main
// machine running on through its checkpoints, and the latest
// checkpoint.
type forkLab struct {
	spec cpumeter.ForkLabSpec
	base *cpumeter.MachineImage // the machine at the set-up barrier
	main *cpumeter.Machine
	img  *cpumeter.MachineImage
	// barrier is the checkpoint img was taken at; RunUntil may stop
	// a little past it, so variants run to barrier+forkWindow, the
	// same barrier a fresh build is driven to.
	barrier cpumeter.Cycles
	at      counts // the main machine's counters at img
	pool    cpumeter.MachinePool
}

// forkCounts reads a fork-lab machine's counters, its tasks' kernel
// counters included.
func forkCounts(m *cpumeter.Machine) counts {
	c := machineCounts(m)
	var seen []cpumeter.PID
	for _, ms := range m.Measurements() {
		if !slices.Contains(seen, ms.TGID) {
			seen = append(seen, ms.TGID)
			c.add(statsCounts(m.Stats(ms.TGID)))
		}
	}
	return c
}

// warmForkLab builds the fork lab and runs it to the set-up barrier.
func warmForkLab(spec cpumeter.ForkLabSpec, tr *tracer) (*cpumeter.Machine, error) {
	sp := tr.begin("experiments", "BuildForkLab")
	m, err := cpumeter.BuildForkLab(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("kernel", "RunUntil")
	done, err := m.RunUntil(forkBarrier)
	tr.end(sp)
	if err != nil || done {
		m.Shutdown()
		return nil, fmt.Errorf("fork lab warm-up to %d: done=%v err=%v", forkBarrier, done, err)
	}
	return m, nil
}

// heapAllocBytes is the cumulative heap allocation, read without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checkpointAt is checkpoint k's barrier.
func checkpointAt(k int) cpumeter.Cycles { return forkBarrier + cpumeter.Cycles(k+1)*forkStride }

// checkpoint advances the main machine to checkpoint k and snapshots
// it; checkpoint 0 first restarts the main machine from the set-up
// barrier, except on the first cycle, which continues the set-up
// machine itself.
func (s *forkLab) checkpoint(k int, tr *tracer) (result, error) {
	r := result{counts: counts{kImages: 1}}
	if k == 0 && s.main == nil {
		sp := tr.begin("kernel", "RestoreMachine")
		m, err := cpumeter.RestoreMachine(s.base)
		tr.end(sp)
		if err != nil {
			return r, err
		}
		s.main = m
		r.counts[kRestores] = 1
	}
	before := forkCounts(s.main)
	sp := tr.begin("kernel", "RunUntil")
	done, err := s.main.RunUntil(checkpointAt(k))
	tr.end(sp)
	if err != nil {
		return r, err
	}
	if done {
		return r, fmt.Errorf("fork lab finished before checkpoint %d", k)
	}
	sp = tr.begin("kernel", "SnapshotMachine")
	var allocated uint64
	if tr != nil {
		allocated = heapAllocBytes()
	}
	img, err := cpumeter.SnapshotMachine(s.main)
	if tr != nil {
		r.counts[kImageKB] = heapAllocBytes() - allocated // bytes until reported
	}
	tr.end(sp)
	if err != nil {
		return r, err
	}
	s.img, s.barrier, s.at = img, checkpointAt(k), forkCounts(s.main)
	r.counts.add(s.at.minus(before))
	if k == forkCheckpoints-1 {
		s.main.Shutdown()
		s.main = nil
	}
	return r, nil
}

// variant forks the latest checkpoint, re-arms the flood at pps, runs
// the fork for forkWindow and digests it.
func (s *forkLab) variant(pps uint64, tr *tracer) (result, error) {
	sp := tr.begin("kernel", "Pool.Get")
	vm, err := s.pool.Get(s.img)
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	vm.NIC().StartFlood(pps)
	sp = tr.begin("kernel", "RunUntil")
	_, err = vm.RunUntil(s.barrier + forkWindow)
	tr.end(sp)
	if err != nil {
		s.pool.Put(vm)
		return result{}, err
	}
	sp = tr.begin("experiments", "HarvestForkLab")
	out := cpumeter.HarvestForkLab(vm)
	tr.end(sp)
	r := result{
		parts:  []any{out.Digest},
		counts: forkCounts(vm).minus(s.at),
	}
	r.counts[kRestores]++
	sp = tr.begin("kernel", "Pool.Put")
	s.pool.Put(vm)
	tr.end(sp)
	return r, nil
}

// forkKey names lab l's variant at checkpoint k with flood rate pps.
func forkKey(l, k int, pps uint64) string { return fmt.Sprintf("l%d/c%03d/%d", l, k, pps) }

// setupForkSweep builds the fork labs and warms each to the barrier,
// then plans one pass per lab of forkCheckpoints checkpoints x
// len(forkRates) variants; every pass after a lab's first restarts it
// from the barrier.
func setupForkSweep(cfg config, tr *tracer) (*plan, error) {
	p := &plan{passOps: forkCheckpoints * len(forkRates)}
	var labs []*forkLab
	for l := 0; l < forkLabs; l++ {
		s := &forkLab{spec: cpumeter.ForkLabSpec{Seed: passSeed(cfg.seed, l), Rounds: forkRounds}}
		m, err := warmForkLab(s.spec, tr)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("kernel", "SnapshotMachine")
		s.base, err = cpumeter.SnapshotMachine(m)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.main = m
		labs = append(labs, s)
		p.eventDepth = max(p.eventDepth, s.base.PendingEvents())
		for k := 0; k < forkCheckpoints; k++ {
			for j, pps := range forkRates {
				o := op{key: forkKey(l, k, pps), run: func(tr *tracer) (result, error) { return s.variant(pps, tr) }}
				if j == 0 {
					o.prep = func(tr *tracer) (result, error) { return s.checkpoint(k, tr) }
				}
				p.ops = append(p.ops, o)
			}
		}
	}
	p.verify = func(digests map[string]string) []string { return verifySample(labs, cfg.seed, digests) }
	return p, nil
}

// verifySample checks a seeded sample of forked variants against fresh
// builds driven through the same barriers with the same perturbation.
func verifySample(labs []*forkLab, seed int64, digests map[string]string) []string {
	rng := rand.New(rand.NewSource(seed))
	var problems []string
	for i := 0; i < forkSamples; i++ {
		l, k, pps := rng.Intn(len(labs)), rng.Intn(forkCheckpoints), forkRates[rng.Intn(len(forkRates))]
		key := forkKey(l, k, pps)
		got, ok := digests[key]
		if !ok {
			continue
		}
		m, err := warmForkLab(labs[l].spec, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: fresh build: %v", key, err))
			continue
		}
		for j := 0; j <= k && err == nil; j++ {
			_, err = m.RunUntil(checkpointAt(j))
		}
		if err == nil {
			m.NIC().StartFlood(pps)
			_, err = m.RunUntil(checkpointAt(k) + forkWindow)
		}
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: fresh build: %v", key, err))
		case digest(cpumeter.HarvestForkLab(m).Digest) != got:
			problems = append(problems, fmt.Sprintf("%s: forked variant differs from a fresh build", key))
		}
		m.Shutdown()
	}
	return problems
}
