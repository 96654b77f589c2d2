package main

import (
	"fmt"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// fabricSeeds is how many distinct seeds fabric-flood passes cycle
// through.
const fabricSeeds = 4

// victimParts is a cluster victim's observable output.
func victimParts(v experiments.ClusterVictimOut) []any {
	parts := []any{v.Billing, v.PacketsReceived}
	if v.Run != nil {
		parts = append(parts, runParts(v.Run)...)
	}
	return parts
}

// floodResult digests a scenario's harvest (out, stripped of its spec
// and victims) and its victims, adds the victims' counters to c, and
// checks every victim finished with the clean output.
func floodResult(key string, out any, c counts, clean string, victims ...experiments.ClusterVictimOut) result {
	r := result{counts: c}
	parts := []any{out}
	for _, v := range victims {
		parts = append(parts, victimParts(v)...)
		r.problems = append(r.problems, checkVictim(key, v.Run, clean)...)
		if v.Run != nil {
			r.counts.add(runCounts(v.Run))
		}
	}
	r.parts = parts
	return r
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// scenario wraps one Meter* call as an op: the call is the span, the
// harvest becomes the result.
func scenario[Out any](key, name string, meter func() (*Out, error), harvest func(*Out) result) op {
	return op{key: key, run: func(tr *tracer) (result, error) {
		sp := tr.begin("experiments", name)
		out, err := meter()
		tr.end(sp)
		if err != nil {
			return result{}, err
		}
		return harvest(out), nil
	}}
}

// fabricPass is one pass over the six flood families, each swept over
// the settings its artifact uses, all victims running program O.
func fabricPass(o cpumeter.Options, tag, clean string) []op {
	var ops []op
	jiffyO := cpumeter.ClusterVictim{Workload: "O", Billing: "jiffy"}
	billings := []string{"jiffy", "process-aware"}

	for _, pps := range []uint64{0, 10_000, 40_000} {
		key := fmt.Sprintf("%s/cluster-%d", tag, pps)
		spec := cpumeter.ClusterRunSpec{Opts: o, FloodPPS: pps, Victims: []cpumeter.ClusterVictim{
			{Workload: "O", Billing: "jiffy"}, {Workload: "O", Billing: "process-aware"},
		}}
		ops = append(ops, scenario(key, "MeterCluster", func() (*cpumeter.ClusterOut, error) { return cpumeter.MeterCluster(spec) },
			func(out *cpumeter.ClusterOut) result {
				c := counts{clSent: sum(out.PacketsSent), clDropped: sum(out.PacketsDropped)}
				for _, v := range out.Victims {
					c[clDelivered] += v.PacketsReceived
				}
				h := *out
				h.Spec, h.Victims = cpumeter.ClusterRunSpec{}, nil
				return floodResult(key, h, c, clean, out.Victims...)
			}))
	}

	for _, billing := range billings {
		for _, n := range []int{1, 2, 4} {
			key := fmt.Sprintf("%s/multiflood-%s-%d", tag, billing, n)
			spec := cpumeter.MultiFloodSpec{Opts: o, Attackers: n, PerAttackerPPS: 40_000, BottleneckPPS: 100_000,
				Victim: cpumeter.ClusterVictim{Workload: "O", Billing: billing}}
			ops = append(ops, scenario(key, "MeterMultiFlood", func() (*cpumeter.MultiFloodOut, error) { return cpumeter.MeterMultiFlood(spec) },
				func(out *cpumeter.MultiFloodOut) result {
					c := counts{clSent: out.Offered, clDelivered: out.Carried, clDropped: out.Dropped}
					h := *out
					h.Spec, h.Victim = cpumeter.MultiFloodSpec{}, experiments.ClusterVictimOut{}
					return floodResult(key, h, c, clean, out.Victim)
				}))
		}
	}

	for _, billing := range billings {
		for _, hog := range []bool{false, true} {
			key := fmt.Sprintf("%s/swapflood-%s-%v", tag, billing, hog)
			spec := cpumeter.SwapFloodSpec{Opts: o, Hog: hog, Victim: cpumeter.ClusterVictim{Workload: "O", Billing: billing}}
			ops = append(ops, scenario(key, "MeterSwapFlood", func() (*cpumeter.SwapFloodOut, error) { return cpumeter.MeterSwapFlood(spec) },
				func(out *cpumeter.SwapFloodOut) result {
					c := counts{clDelivered: out.HostRxPackets}
					h := *out
					h.Spec, h.Victim = cpumeter.SwapFloodSpec{}, experiments.ClusterVictimOut{}
					return floodResult(key, h, c, clean, out.Victim)
				}))
		}
	}

	routed := func(pps uint64) cpumeter.RouterFloodSpec {
		return cpumeter.RouterFloodSpec{Opts: o, Attackers: 2, PerAttackerPPS: pps, Victim: jiffyO, EgressPPS: 30_000,
			RED: &cpumeter.REDSpec{MinDepth: 8, MaxDepth: 24, MaxPct: 50}, FlowFrames: 300}
	}
	for _, pps := range []uint64{0, 10_000, 20_000} {
		key := fmt.Sprintf("%s/routerflood-%d", tag, pps)
		spec := routed(pps)
		ops = append(ops, scenario(key, "MeterRouterFlood", func() (*cpumeter.RouterFloodOut, error) { return cpumeter.MeterRouterFlood(spec) },
			func(out *cpumeter.RouterFloodOut) result {
				c := counts{clSent: out.Offered, clDelivered: out.Carried, clDropped: out.DroppedIngress + out.EgressDropped,
					clMarked: out.EgressMarked, clForwarded: out.RouterForwarded}
				h := *out
				h.Spec, h.Victim = cpumeter.RouterFloodSpec{}, experiments.ClusterVictimOut{}
				return floodResult(key, h, c, clean, out.Victim)
			}))
	}

	fair := []cpumeter.FairFloodSpec{
		{Qdisc: cpumeter.QdiscFIFO},
		{Qdisc: cpumeter.QdiscFIFO, AttackerPPS: 4000},
		{Qdisc: cpumeter.QdiscDRR, AttackerPPS: 4000, RED: &cpumeter.REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50, Weight: 6}},
	}
	for i, spec := range fair {
		spec.Opts, spec.Victim, spec.FlowFrames, spec.EgressPPS = o, jiffyO, 300, 30_000
		key := fmt.Sprintf("%s/fairflood-%d", tag, i)
		ops = append(ops, scenario(key, "MeterFairFlood", func() (*cpumeter.FairFloodOut, error) { return cpumeter.MeterFairFlood(spec) },
			func(out *cpumeter.FairFloodOut) result {
				c := counts{clSent: out.JunkOffered + out.FlowOffered, clDelivered: out.JunkDelivered + out.FlowDelivered,
					clDropped: out.JunkDropped + out.FlowDropped, clMarked: out.EgressMarked}
				h := *out
				h.Spec, h.Victim = cpumeter.FairFloodSpec{}, experiments.ClusterVictimOut{}
				return floodResult(key, h, c, clean, out.Victim)
			}))
	}

	ws, _ := workloads.SpecByKey("O")
	floodSec := ws.BaselineSeconds * o.Scale * 1.5
	chaos := []cpumeter.ChaosSpec{
		{},
		{FaultPPM: 20_000},
		{RouterCrashSec: floodSec * 0.45},
		{FaultPPM: 20_000, RouterCrashSec: floodSec * 0.3, RouterRestartSec: floodSec * 0.15, VictimFlap: &cpumeter.FlapSpec{
			FirstDownUs: uint64(floodSec * 0.2 * 1e6), DownUs: uint64(floodSec * 0.05 * 1e6), UpUs: uint64(floodSec * 0.2 * 1e6),
		}},
	}
	for i, cs := range chaos {
		key := fmt.Sprintf("%s/chaosflood-%d", tag, i)
		spec := cpumeter.ChaosFloodSpec{Flood: routed(20_000), Chaos: cs}
		ops = append(ops, scenario(key, "MeterChaosFlood", func() (*cpumeter.ChaosFloodOut, error) { return cpumeter.MeterChaosFlood(spec) },
			func(out *cpumeter.ChaosFloodOut) result {
				c := counts{clForwarded: out.RouterForwarded, clIncarnations: uint64(out.RouterIncarnations)}
				for _, l := range out.Links {
					c[clSent] += l.Sent
					c[clDelivered] += l.Delivered
					c[clDropped] += l.Dropped
				}
				h := *out
				h.Spec, h.Victim = cpumeter.ChaosFloodSpec{}, experiments.ClusterVictimOut{}
				r := floodResult(key, h, c, clean, out.Victim)
				for _, name := range out.Unbalanced() {
					r.problems = append(r.problems, fmt.Sprintf("%s: link %s breaks Sent = Delivered + Dropped + Queued", key, name))
				}
				return r
			}))
	}
	return ops
}

// setupFabricFlood plans passes over the flood families, cycling
// through fabricSeeds seeds. Set-up runs the clean job the victims'
// outputs are checked against.
func setupFabricFlood(cfg config, tr *tracer) (*plan, error) {
	clean, err := cleanOutputs(cfg, tr, fabricSeeds, []string{"O"})
	if err != nil {
		return nil, err
	}
	p := &plan{eventDepth: 32}
	for i := 0; i < fabricSeeds; i++ {
		o := cpumeter.Options{Seed: passSeed(cfg.seed, i), Scale: cfg.scale, Parallelism: 1}
		p.ops = append(p.ops, fabricPass(o, fmt.Sprintf("s%d", i), clean[i]["O"])...)
	}
	p.passOps = len(p.ops) / fabricSeeds
	return p, nil
}
