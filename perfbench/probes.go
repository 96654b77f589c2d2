package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
)

// probeCalls is how many calls each layer probe times.
const probeCalls = 200_000

// runProbes times single layers through their public functions, with
// inputs sized from the traced run's counts, and returns host ns per
// call. The cluster barrier pair's rounds are spans, read by the
// caller.
func runProbes(tr *tracer, rep *report) (map[string]float64, error) {
	perOp := func(k counter, lo, hi int) int {
		n := int(rep.counts[k] / uint64(max(rep.attempted, 1)))
		return min(max(n, lo), hi)
	}
	timed := func(layer, name string, calls int, loop func()) float64 {
		sp := tr.begin(layer, "probe."+name)
		t := time.Now()
		loop()
		d := time.Since(t)
		tr.end(sp)
		return float64(d.Nanoseconds()) / float64(calls)
	}
	out := map[string]float64{}

	// mem: a working set of the jobs' faulting pages; hits touch it
	// while resident, faults cycle through twice as many pages as
	// there are frames, so every touch evicts.
	pages := perOp(mMinor, 16, 4096)
	hit := mem.New(uint64(pages)*mem.DefaultPageSize, mem.DefaultPageSize).NewSpace("probe")
	for i := 0; i < pages; i++ {
		hit.Touch(uint64(i)*mem.DefaultPageSize, true)
	}
	out["mem.touch_hit_ns"] = timed("mem", "touch_hit", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			hit.Touch(uint64(i%pages)*mem.DefaultPageSize, i&1 == 0)
		}
	})
	frames := max(pages/2, 8)
	fault := mem.New(uint64(frames)*mem.DefaultPageSize, mem.DefaultPageSize).NewSpace("probe")
	out["mem.touch_fault_ns"] = timed("mem", "touch_fault", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			fault.Touch(uint64(i%(2*frames))*mem.DefaultPageSize, true)
		}
	})

	// metering and sched: as many tasks as the jobs switch between.
	tasks := perOp(kPreemptions, 2, 64)
	ps := make([]*proc.Proc, tasks)
	for i := range ps {
		ps[i] = proc.New(proc.PID(i+1), fmt.Sprintf("p%d", i), nil)
		ps[i].SetNice(i%40 - 20)
	}
	tick := sim.Cycles(uint64(cpumeter.DefaultCPUHz) / kernel.DefaultHZ)
	multi := metering.NewMulti(metering.NewJiffy(tick), metering.NewTSC(), metering.NewProcessAware())
	out["metering.onrun_ns"] = timed("metering", "onrun", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			multi.OnRun(ps[i%tasks], cpu.User, 1000)
		}
	})
	out["metering.ontick_ns"] = timed("metering", "ontick", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			multi.OnTick(ps[i%tasks], cpu.Kernel)
		}
	})
	cyclesPerMs := sim.Cycles(uint64(cpumeter.DefaultCPUHz) / 1000)
	for _, s := range []sched.Scheduler{sched.NewO1(cyclesPerMs), sched.NewCFS(cyclesPerMs)} {
		for _, p := range ps {
			s.Enqueue(p)
		}
		out["sched."+s.Name()+"_ns"] = timed("sched", s.Name(), probeCalls, func() {
			for i := 0; i < probeCalls; i++ {
				p := s.PickNext()
				s.Charge(p, cyclesPerMs)
				s.Enqueue(p)
			}
		})
	}

	// device: a DRR backlog as deep as the frames the scenarios drop
	// per op, spread over four flows.
	backlog := perOp(clDropped, 8, 1024)
	drr := device.NewDRR(cpumeter.DefaultQuantumBytes)
	entry := func(i int) device.QdiscEntry {
		f := device.Frame{Flow: uint32(i % 4), Bytes: uint32(64 + i%1400)}
		return device.QdiscEntry{F: f, Cost: device.WireBytes(f)}
	}
	for i := 0; i < backlog; i++ {
		drr.Enqueue(entry(i))
	}
	out["device.drr_ns"] = timed("device", "drr", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			drr.Enqueue(entry(i))
			drr.Dequeue()
		}
	})

	// sim: Schedule + Pop at the workload's pending-event depth.
	q := sim.NewEventQueue()
	depth := max(rep.eventDepth, 1)
	for i := 0; i < depth; i++ {
		q.Schedule(sim.Cycles(i*1000), "probe", nil)
	}
	out["sim.event_ns"] = timed("sim", "event", probeCalls, func() {
		for i := 0; i < probeCalls; i++ {
			e := q.Pop()
			at := e.At + sim.Cycles(depth*1000)
			q.Release(e)
			q.Schedule(at, "probe", nil)
		}
	})

	return out, barrierPair(tr, perOp(clSent, 100, 2000))
}

// pairSender transmits frames to the pair's receiver at a fixed gap.
type pairSender struct {
	dst    guest.Addr
	frames int
	i      int
}

func (g *pairSender) run(ctx guest.Context, _ guest.Resume) guest.Step {
	if g.i >= g.frames {
		return nil
	}
	g.i++
	//simlint:errno-ok resumable post: the outcome arrives in the next activation
	ctx.NetSend(guest.Frame{Dst: g.dst, Flow: 1})
	return g.sleep
}

func (g *pairSender) sleep(ctx guest.Context, _ guest.Resume) guest.Step {
	ctx.Sleep(50_000)
	return g.run
}

// pairSink consumes deliveries forever on a service machine.
type pairSink struct{ seen uint64 }

func (w *pairSink) run(ctx guest.Context, r guest.Resume) guest.Step {
	w.seen = max(w.seen, r.Ret)
	ctx.NetRxWait(w.seen)
	return w.run
}

// barrierPair steps a two-machine flyweight cluster, sender to sink,
// one lockstep round (one link latency) per Cluster.RunUntil span.
func barrierPair(tr *tracer, frames int) error {
	const latencyUs = 50
	hz := cpumeter.DefaultCPUHz
	cl, err := cpumeter.NewCluster(cpumeter.ClusterConfig{
		Machines: []cpumeter.ClusterMachineSpec{
			{Name: "sender", Config: kernel.Config{Seed: 1, CPUHz: hz}, Boot: func(c *cpumeter.Cluster, m *kernel.Machine) error {
				g := &pairSender{dst: c.AddrOf(1), frames: frames}
				_, err := m.Spawn(kernel.SpawnConfig{Name: "pktgen", Content: "pktgen", Step: g.run})
				return err
			}},
			{Name: "sink", Config: kernel.Config{Seed: 2, CPUHz: hz}, Service: true, Boot: func(_ *cpumeter.Cluster, m *kernel.Machine) error {
				w := &pairSink{}
				_, err := m.Spawn(kernel.SpawnConfig{Name: "sink", Content: "sink", Step: w.run})
				return err
			}},
		},
		Links: []cpumeter.ClusterLinkSpec{{From: 0, To: 1, LatencyUs: latencyUs}},
	})
	if err != nil {
		return fmt.Errorf("barrier pair: %w", err)
	}
	defer cl.Shutdown()
	round := sim.Cycles(uint64(hz) / 1_000_000 * latencyUs)
	for at := round; ; at += round {
		sp := tr.begin("cluster", "Cluster.RunUntil")
		done, err := cl.RunUntil(at)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("barrier pair: %w", err)
		}
		if done {
			return nil
		}
	}
}
