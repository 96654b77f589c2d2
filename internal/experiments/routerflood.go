// Router flood: attackers inflate a *third party's* bill. N attacker
// machines flood a victim host through a shared router machine — a
// real kernel.Machine running a forwarding guest whose per-frame
// receive interrupts, lookup work, and retransmit syscalls are billed
// through the router's own metering accountant. The attackers never
// run an instruction on the router, yet the router's metered CPU time
// grows with their offered packet rate: the paper's billing
// distortion crossing a machine boundary twice. The router's
// congested egress wire runs RED/ECN queue feedback, so a
// well-behaved ack-paced ECN flow sharing the path backs off under
// marks while the attackers' junk takes the early drops.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// RouterFloodSpec describes one attackers → router → victim scenario
// executed in deterministic lockstep.
type RouterFloodSpec struct {
	Opts Options
	// Attackers is the number of attacker machines (≥ 1; they may all
	// stay silent at PerAttackerPPS 0 for a baseline).
	Attackers int
	// PerAttackerPPS is each attacker's offered rate; zero keeps the
	// attackers silent.
	PerAttackerPPS uint64
	// FloodSeconds is each attacker's transmit duration; zero derives
	// 1.5x the victim's baseline, and a negative, NaN or infinite value
	// is an error.
	FloodSeconds float64
	// Victim is the billed job on the machine behind the router.
	Victim ClusterVictim
	// RouterLookupUs is the router's per-frame user-mode lookup work;
	// zero selects cluster.DefaultForwardUs.
	RouterLookupUs uint64
	// EgressPPS is the router→victim wire's capacity — the congested
	// hop; zero selects cluster.DefaultLinkPPS.
	EgressPPS uint64
	// EgressQueueDepth bounds the egress queue; zero selects
	// cluster.DefaultQueueDepth.
	EgressQueueDepth uint64
	// RED, when non-nil, arms RED/ECN on the egress wire.
	RED *cluster.REDSpec
	// FlowFrames sizes the well-behaved ack-paced ECN transfer
	// sharing the egress; zero runs no flow.
	FlowFrames uint64
	// FlowWindow is the flow's initial/max congestion window; zero
	// selects 8.
	FlowWindow uint64
	// LinkLatencyUs is every link's one-way latency; zero selects
	// cluster.DefaultLatencyUs.
	LinkLatencyUs uint64
}

// RouterFloodOut is one routed-flood scenario's harvest.
type RouterFloodOut struct {
	Spec   RouterFloodSpec
	Victim ClusterVictimOut
	// Router is the forwarding daemon's accounted time across schemes
	// — the router machine's bill for work the attackers caused.
	Router PartyUsage
	// RouterForwarded counts frames the router retransmitted;
	// RouterRxDropped counts frames lost to the router's own
	// input-queue overflow when forwarding cannot keep up.
	RouterForwarded, RouterRxDropped uint64
	// Offered/Carried/DroppedIngress sum the attacker→router links.
	Offered, Carried, DroppedIngress uint64
	// EgressMarked/EgressEarlyDropped/EgressDropped are the congested
	// router→victim wire's RED marks, RED early drops, and total
	// drops.
	EgressMarked, EgressEarlyDropped, EgressDropped uint64
	// Flow is the ack-paced ECN transfer's harvest.
	Flow AckFlowStats
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// flowID tags the well-behaved transfer's frames; attacker junk rides
// flow 0 and is drained unacked.
const routerFloodFlowID = 7

// routedStar lays out the routed flood shared by routerflood and
// chaosflood: machines 0..A-1 are the attackers, A the flow sender,
// A+1 the router (a Service machine running cluster.Forwarder), A+2
// the victim host (billed workload plus the flow's echo daemon). The
// attackers send non-ECN junk addressed to the victim; the sender
// runs the well-behaved ECN flow, labelled flowContent, with a
// clock-driven retransmission timeout of flowTimeoutUs (zero keeps
// the idle-tick heuristic). Every uplink meets at the router, whose
// egress wire to the victim — the last link — carries the congestion
// policy; static routes send victim-bound traffic through the router
// and the victim's acks back the same way.
func routedStar(family string, fl RouterFloodSpec, flowContent string, flowTimeoutUs uint64) (*scenario, error) {
	if fl.Attackers < 1 {
		return nil, fmt.Errorf("%s: need at least one attacker machine, have %d", family, fl.Attackers)
	}
	o := fl.Opts.norm()
	perUs := sim.Cycles(uint64(o.Freq) / 1_000_000)
	senderIdx, routerIdx, victimIdx := fl.Attackers, fl.Attackers+1, fl.Attackers+2
	sc := &scenario{o: o, family: family, window: fl.FloodSeconds, windowField: "FloodSeconds"}
	for a := 0; a < fl.Attackers; a++ {
		sc.roles = append(sc.roles, role{
			kind: attacker, name: fmt.Sprintf("attacker-%d", a), content: "junk-ip packet generator v3 (routed)",
			pps: fl.PerAttackerPPS, dst: victimIdx,
		})
		sc.links = append(sc.links, cluster.LinkSpec{From: a, To: routerIdx, LatencyUs: fl.LinkLatencyUs})
		sc.routes = append(sc.routes, cluster.RouteSpec{On: a, Dst: victimIdx, Via: routerIdx})
	}
	sc.roles = append(sc.roles,
		role{kind: sender, name: "sender", content: flowContent, dst: victimIdx, flow: AckFlowConfig{
			Flow:          routerFloodFlowID,
			Frames:        fl.FlowFrames,
			Window:        fl.FlowWindow,
			PaceCycles:    500 * perUs, // ≤2k pps offered
			TimeoutCycles: sim.Cycles(flowTimeoutUs) * perUs,
		}},
		role{kind: router, name: "router", lookupUs: orDefault(fl.RouterLookupUs, cluster.DefaultForwardUs)},
		role{kind: host, name: "victim", victim: fl.Victim},
	)
	if fl.FlowFrames > 0 {
		sc.roles[victimIdx].echo = routerFloodFlowID
	}
	sc.links = append(sc.links,
		cluster.LinkSpec{From: senderIdx, To: routerIdx, LatencyUs: fl.LinkLatencyUs},
		cluster.LinkSpec{
			From: routerIdx, To: victimIdx,
			LatencyUs:        fl.LinkLatencyUs,
			PacketsPerSecond: fl.EgressPPS,
			QueueDepth:       fl.EgressQueueDepth,
			RED:              fl.RED,
		})
	sc.routes = append(sc.routes,
		cluster.RouteSpec{On: senderIdx, Dst: victimIdx, Via: routerIdx},
		cluster.RouteSpec{On: victimIdx, Dst: senderIdx, Via: routerIdx},
	)
	return sc, nil
}

// RunRouterFlood executes one scenario on the routed star (see
// routedStar).
func RunRouterFlood(spec RouterFloodSpec) (*RouterFloodOut, error) {
	sc, err := routedStar("routerflood", spec, "ack-paced ecn sender v1", 0)
	if err != nil {
		return nil, err
	}
	sc.key = routerFloodKey(spec)
	r, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	routerIdx := spec.Attackers + 1
	out := &RouterFloodOut{
		Spec:            spec,
		Victim:          r.hosts[0],
		RouterRxDropped: r.cl.Machine(routerIdx).RxBufDropped(),
		Flow:            r.flow,
		ElapsedSec:      r.elapsed,
	}
	out.Router, out.RouterForwarded = routerBill(r, routerIdx)
	for a := 0; a < spec.Attackers; a++ {
		l := r.cl.Link(a)
		out.Offered += l.Sent()
		out.Carried += l.Delivered()
		out.DroppedIngress += l.Dropped()
	}
	el := r.cl.Link(r.cl.Links() - 1)
	out.EgressMarked = el.Marked()
	out.EgressEarlyDropped = el.EarlyDropped()
	out.EgressDropped = el.Dropped()
	return out, nil
}

// routerBill sums the forwarding daemon's bill across schemes, and the
// frames it retransmitted, over every incarnation of the router at
// machine idx.
func routerBill(r *ran, idx int) (bill PartyUsage, forwarded uint64) {
	pids := r.pids[idx] // one per incarnation: each boot spawns the daemon
	bill = PartyUsage{
		Name: "fwd",
		PID:  pids[0],
		User: make(map[string]float64, len(Schemes)),
		Sys:  make(map[string]float64, len(Schemes)),
	}
	for k, inc := range r.cl.Incarnations(idx) {
		u := usageOf(inc, "fwd", pids[k])
		for _, s := range Schemes {
			bill.User[s] += u.User[s]
			bill.Sys[s] += u.Sys[s]
		}
		forwarded += inc.NIC().Transmitted()
	}
	return bill, forwarded
}

func routerFloodKey(spec RouterFloodSpec) string {
	return fmt.Sprintf("%d-attackers/%dpps/%s", spec.Attackers, spec.PerAttackerPPS, spec.Victim.Billing)
}

// Artifact parameters: two attackers share a router whose 30k-pps
// egress wire runs RED between depths 8 and 24 at up to 50% feedback,
// alongside a 300-frame ack-paced ECN transfer.
const (
	routerFloodAttackers  = 2
	routerFloodEgressPPS  = 30_000
	routerFloodFlowFrames = 300
)

func routerFloodRED() *cluster.REDSpec {
	return &cluster.REDSpec{MinDepth: 8, MaxDepth: 24, MaxPct: 50}
}

// RouterFlood regenerates the routed-fabric scenario: two attacker
// machines flood a victim host through a shared router machine at
// increasing rates while an ack-paced ECN flow shares the router's
// RED-managed egress. The router's own jiffy bill — a machine the
// attackers never touch — grows with the offered rate; the ECN flow
// completes by backing off under marks while the junk absorbs the
// early drops.
func RouterFlood(o Options) (*Figure, error) {
	o = o.norm()
	rates := []uint64{0, 10_000, 20_000}
	specs := make([]RouterFloodSpec, len(rates))
	for i, pps := range rates {
		specs[i] = RouterFloodSpec{
			Opts:           o,
			Attackers:      routerFloodAttackers,
			PerAttackerPPS: pps,
			Victim:         ClusterVictim{Workload: "O", Billing: "jiffy"},
			EgressPPS:      routerFloodEgressPPS,
			RED:            routerFloodRED(),
			FlowFrames:     routerFloodFlowFrames,
		}
	}
	outs, err := Campaign("routerflood", specs, o.Parallelism, RunRouterFlood, routerFloodKey)
	if err != nil {
		return nil, fmt.Errorf("router flood: %w", err)
	}

	fig := &Figure{
		ID:    "Router Flood",
		Title: "Routed Interrupt Flood (2 attacker PCs through a shared billed router, RED/ECN egress)",
		Unit:  "CPU seconds (jiffy-billed on each owning machine)",
	}
	for ri, pps := range rates {
		out := outs[ri]
		label := "no flood"
		if pps > 0 {
			label = fmt.Sprintf("%dk pps x2", pps/1000)
		}
		fig.Bars = append(fig.Bars,
			billBar("router-fwd", label, out.Router, "jiffy"),
			billBar("victim-host", label, out.Victim.Run.Victim, "jiffy"),
		)
	}
	quiet, worst := outs[0], outs[len(outs)-1]
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("attackers offered %d frames; router forwarded %d and overflowed %d at its input queue; egress RED marked %d ECN frames and early-dropped %d junk frames (total egress drops %d)",
			worst.Offered, worst.RouterForwarded, worst.RouterRxDropped, worst.EgressMarked, worst.EgressEarlyDropped, worst.EgressDropped),
		fmt.Sprintf("ECN flow (%d frames): completed with %d acks, %d ECE backoffs, %d write-offs under flood; %d acks and %d backoffs with no flood (acks past the frame count are retransmission duplicates)",
			routerFloodFlowFrames, worst.Flow.Acked, worst.Flow.Backoffs, worst.Flow.Lost, quiet.Flow.Acked, quiet.Flow.Backoffs),
		"expectation: the router's bill — a machine the attackers never run on — grows with offered rate; the ECN flow backs off under marks instead of tail-dropping",
	)
	return fig, nil
}
