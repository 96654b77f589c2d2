// Fair-queueing flood: the qdisc layer's headline artifact. One
// attacker machine floods MTU-size junk through the same congested
// egress wire a well-behaved 300-frame ECN flow needs, and the only
// thing that changes between runs is the wire's queueing discipline.
// Under FIFO the junk owns the queue: the flow's frames tail-drop
// behind it, the clock-driven retransmission timeout fires over and
// over, and the transfer's completion time blows up (or the sender
// abandons it). Under DRR the same wire serves flows round-robin by
// byte quantum and sheds buffer from the fattest flow, so the flow
// completes with bounded latency while the junk takes the drops —
// fair queueing caps the distortion an attacker can impose on traffic
// it never addressed.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/textplot"
)

// FairFloodSpec describes one attacker-vs-flow shared-egress scenario
// executed in deterministic lockstep: machine 0 the attacker, 1 the
// flow sender, 2 the victim host (billed workload plus the flow's
// echo daemon), with both uplinks serialising through one Bottleneck
// egress pipe under the selected discipline.
type FairFloodSpec struct {
	Opts Options
	// Qdisc selects the shared egress discipline: cluster.QdiscFIFO
	// (default) or cluster.QdiscDRR.
	Qdisc string
	// QuantumBytes is DRR's per-flow byte quantum; zero selects
	// cluster.DefaultQuantumBytes. Only meaningful with QdiscDRR.
	QuantumBytes uint64
	// AttackerPPS is the junk rate; zero keeps the attacker silent.
	AttackerPPS uint64
	// AttackerBytes sizes the junk frames; zero selects 1500 (MTU
	// frames, ~18 serialisation slots each).
	AttackerBytes uint32
	// FloodSeconds is the attacker's transmit duration; zero derives
	// 1.5x the victim workload's baseline, and a negative, NaN or
	// infinite value is an error.
	FloodSeconds float64
	// Victim is the billed job on the victim host.
	Victim ClusterVictim
	// FlowFrames sizes the well-behaved ack-paced ECN transfer
	// (required, ≥ 1 — the flow is the scenario's point).
	FlowFrames uint64
	// FlowBytes sizes the flow's data frames; zero selects 256.
	FlowBytes uint32
	// FlowWindow is the flow's initial/max congestion window; zero
	// selects 8.
	FlowWindow uint64
	// FlowTimeoutUs is the sender's clock-driven retransmission
	// timeout in virtual microseconds; zero selects 20000 (20 ms).
	FlowTimeoutUs uint64
	// EgressPPS is the shared egress wire's capacity in minimum-frame
	// slots per second; zero selects 30000.
	EgressPPS uint64
	// EgressQueueDepth bounds the egress queue in slots; zero selects
	// cluster.DefaultQueueDepth.
	EgressQueueDepth uint64
	// RED, when non-nil, arms RED/ECN on the egress (set Weight for
	// the EWMA estimate).
	RED *cluster.REDSpec
	// LinkLatencyUs is every link's one-way latency; zero selects
	// cluster.DefaultLatencyUs.
	LinkLatencyUs uint64
}

// FairFloodOut is one shared-egress scenario's harvest.
type FairFloodOut struct {
	Spec   FairFloodSpec
	Victim ClusterVictimOut
	// Flow is the ack-paced transfer's harvest; FlowDoneSec is its
	// completion instant on the guest clock in virtual seconds.
	Flow        AckFlowStats
	FlowDoneSec float64
	// JunkOffered/JunkDelivered/JunkDropped are the attacker uplink's
	// counters; FlowOffered/FlowDelivered/FlowDropped the sender
	// uplink's. Drops on either include backlog shed by DRR's
	// buffer-steal policy.
	JunkOffered, JunkDelivered, JunkDropped uint64
	FlowOffered, FlowDelivered, FlowDropped uint64
	// EgressMarked/EgressEarlyDropped are the shared pipe's RED marks
	// (on the flow's ECN frames) and early drops (of non-ECN junk),
	// summed over both uplinks.
	EgressMarked, EgressEarlyDropped uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// fairFloodFlowID tags the well-behaved transfer; junk rides flow 0.
const fairFloodFlowID = 9

// RunFairFlood executes one scenario. The victim host's echo daemon
// runs at high priority, like the softirq half of a real network
// stack: ack latency then reflects the wire under test, not the
// victim workload's timeslice.
func RunFairFlood(spec FairFloodSpec) (*FairFloodOut, error) {
	if spec.FlowFrames == 0 {
		return nil, fmt.Errorf("fairflood: FlowFrames must be ≥ 1 (the flow is what fairness is measured on)")
	}
	o := spec.Opts.norm()
	perUs := sim.Cycles(uint64(o.Freq) / 1_000_000)
	const attackerIdx, senderIdx, victimIdx = 0, 1, 2
	// Both uplinks serialise through one shared egress pipe — the
	// discipline under test.
	egress := cluster.LinkSpec{
		To:               victimIdx,
		LatencyUs:        spec.LinkLatencyUs,
		PacketsPerSecond: orDefault(spec.EgressPPS, 30_000),
		QueueDepth:       spec.EgressQueueDepth,
		RED:              spec.RED,
		Qdisc:            spec.Qdisc,
		QuantumBytes:     spec.QuantumBytes,
		Bottleneck:       "egress",
	}
	junkLink, flowLink := egress, egress
	junkLink.From, flowLink.From = attackerIdx, senderIdx
	r, err := runScenario(&scenario{
		o: o, family: "fairflood", key: fairFloodKey(spec),
		window: spec.FloodSeconds, windowField: "FloodSeconds",
		roles: []role{
			{kind: attacker, name: "attacker", content: "junk-ip packet generator v4 (mtu frames)",
				pps: spec.AttackerPPS, dst: victimIdx, bytes: orDefault(spec.AttackerBytes, 1500)},
			{kind: sender, name: "sender", content: "ack-paced ecn sender v2 (clock rto)", dst: victimIdx, flow: AckFlowConfig{
				Flow:          fairFloodFlowID,
				Frames:        spec.FlowFrames,
				Window:        spec.FlowWindow,
				PaceCycles:    500 * perUs, // ≤2k pps offered
				TimeoutCycles: sim.Cycles(orDefault(spec.FlowTimeoutUs, 20_000)) * perUs,
				FrameBytes:    orDefault(spec.FlowBytes, 256),
			}},
			{kind: host, name: "victim", victim: spec.Victim, echo: fairFloodFlowID, echoNice: -15},
		},
		links: []cluster.LinkSpec{junkLink, flowLink},
	})
	if err != nil {
		return nil, err
	}
	junk, flow := r.cl.Link(0), r.cl.Link(1)
	return &FairFloodOut{
		Spec:               spec,
		Victim:             r.hosts[0],
		Flow:               r.flow,
		FlowDoneSec:        r.cl.Machine(senderIdx).Clock().Seconds(r.flow.DoneAt),
		JunkOffered:        junk.Sent(),
		JunkDelivered:      junk.Delivered(),
		JunkDropped:        junk.Dropped(),
		FlowOffered:        flow.Sent(),
		FlowDelivered:      flow.Delivered(),
		FlowDropped:        flow.Dropped(),
		EgressMarked:       junk.Marked() + flow.Marked(),
		EgressEarlyDropped: junk.EarlyDropped() + flow.EarlyDropped(),
		ElapsedSec:         r.elapsed,
	}, nil
}

func fairFloodKey(spec FairFloodSpec) string {
	q := spec.Qdisc
	if q == "" {
		q = cluster.QdiscFIFO
	}
	return fmt.Sprintf("%s/%dpps", q, spec.AttackerPPS)
}

// Artifact parameters: MTU junk at 4000 pps (~2.4x the 30k-slot
// egress) against a 300-frame ECN flow, EWMA RED between depths 8
// and 32 at up to 50% feedback with weight 2^-6.
const (
	fairFloodAttackerPPS = 4000
	fairFloodEgressPPS   = 30_000
	fairFloodFlowFrames  = 300
)

func fairFloodRED() *cluster.REDSpec {
	return &cluster.REDSpec{MinDepth: 8, MaxDepth: 32, MaxPct: 50, Weight: 6}
}

// FairFlood regenerates the qdisc-fairness artifact: the same
// attacker-vs-flow shared-egress scenario under FIFO (quiet and
// flooded) and under DRR (flooded). FIFO lets the flood starve the
// flow — its completion time explodes against the quiet baseline —
// while DRR's per-flow round robin bounds the flow's latency on the
// very same wire, and the victim host's bill for the junk it never
// asked for shrinks with the junk the fair queue refuses to carry.
func FairFlood(o Options) (*Figure, error) {
	o = o.norm()
	// FIFO runs bare tail-drop (the commodity wire); the DRR run is
	// the managed configuration — per-flow fairness plus EWMA RED/ECN.
	specs := []FairFloodSpec{
		{Qdisc: cluster.QdiscFIFO, AttackerPPS: 0},
		{Qdisc: cluster.QdiscFIFO, AttackerPPS: fairFloodAttackerPPS},
		{Qdisc: cluster.QdiscDRR, AttackerPPS: fairFloodAttackerPPS, RED: fairFloodRED()},
	}
	labels := []string{"fifo quiet", "fifo flood", "drr flood"}
	for i := range specs {
		specs[i].Opts = o
		specs[i].Victim = ClusterVictim{Workload: "O", Billing: "jiffy"}
		specs[i].FlowFrames = fairFloodFlowFrames
		specs[i].EgressPPS = fairFloodEgressPPS
	}
	outs, err := Campaign("fairflood", specs, o.Parallelism, RunFairFlood, fairFloodKey)
	if err != nil {
		return nil, fmt.Errorf("fair flood: %w", err)
	}

	fig := &Figure{
		ID:    "Fair Flood",
		Title: "Per-Flow Fairness on a Congested Egress (FIFO vs DRR, byte-accurate wire, EWMA RED)",
		Unit:  "virtual seconds (flow completion) / CPU seconds (victim bill)",
	}
	for i, out := range outs {
		status := "done"
		if out.Flow.GaveUp {
			status = "gave up"
		}
		fig.Bars = append(fig.Bars,
			textplot.Bar{Group: "flow-done", Label: labels[i], Segments: []textplot.Segment{
				{Name: status, Value: out.FlowDoneSec},
			}},
			billBar("victim-bill", labels[i], out.Victim.Run.Victim, "jiffy"),
		)
	}
	fifo, drr := outs[1], outs[2]
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("fifo flood: flow sent %d for %d acks (%d timeouts, %d written off, gave up: %v); junk %d offered / %d delivered / %d dropped",
			fifo.Flow.Sent, fifo.Flow.Acked, fifo.Flow.Timeouts, fifo.Flow.Lost, fifo.Flow.GaveUp,
			fifo.JunkOffered, fifo.JunkDelivered, fifo.JunkDropped),
		fmt.Sprintf("drr flood: flow sent %d for %d acks (%d timeouts, %d written off); junk %d offered / %d delivered / %d dropped; egress RED marked %d, early-dropped %d",
			drr.Flow.Sent, drr.Flow.Acked, drr.Flow.Timeouts, drr.Flow.Lost,
			drr.JunkOffered, drr.JunkDelivered, drr.JunkDropped, drr.EgressMarked, drr.EgressEarlyDropped),
		"expectation: FIFO lets MTU junk starve the 300-frame ECN flow (completion blows up); DRR bounds the flow's completion on the same wire while the junk absorbs the drops",
	)
	return fig, nil
}
