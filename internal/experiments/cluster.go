// Cluster scenarios: the paper's interrupt flood (Fig. 10) driven the
// way the paper actually drives it — from a second PC. A cluster run
// builds one attacker machine and N victim machines joined by modeled
// links; the attacker hosts a real packet-generator process whose
// frames cross a link and raise genuine NIC receive interrupts on the
// victims. Each victim machine can bill under a different accounting
// scheme, so one scenario shows the commodity-billed victim's bill
// inflating while the process-aware-billed victim's stays put.
//
// Cluster runs are RunSpec-shaped work for the campaign engine: a
// figure declares its whole []ClusterRunSpec matrix and Campaign
// shards the independent clusters across the worker pool, with the
// same declaration-order, byte-identical-results contract.
package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/textplot"
)

// ClusterVictim describes one victim machine in a cluster scenario.
type ClusterVictim struct {
	// Workload is "O", "P", "W" or "B".
	Workload string
	// Billing selects the machine's billing (first) accountant:
	// "jiffy" (default, the commodity scheme), "tsc", or
	// "process-aware". All three schemes still record in parallel.
	Billing string
	// Nice sets the victim job's priority.
	Nice int
}

// ClusterRunSpec describes one attacker-machine → victim-machines
// flood scenario executed in deterministic lockstep.
type ClusterRunSpec struct {
	Opts    Options
	Victims []ClusterVictim
	// FloodPPS is the attacker's transmit rate per victim link; zero
	// means the attacker machine stays silent (baseline cluster).
	FloodPPS uint64
	// FloodSeconds is the attacker's transmit duration in virtual
	// seconds; zero derives 1.5x the longest victim baseline (so the
	// flood outlives every victim), and a negative, NaN or infinite
	// value is an error.
	FloodSeconds float64
	// LinkLatencyUs is the one-way link latency; zero selects
	// cluster.DefaultLatencyUs.
	LinkLatencyUs uint64
	// LinkPPS is each attacker→victim wire's serialisation capacity;
	// zero selects cluster.DefaultLinkPPS, cluster.UnlimitedPPS an
	// idealised lossless infinite-rate pipe (the first cluster
	// model, which such a config replays bit-for-bit).
	LinkPPS uint64
	// LinkQueueDepth bounds each wire's tail-drop queue in packets;
	// zero selects cluster.DefaultQueueDepth.
	LinkQueueDepth uint64
	// LinkRED, when non-nil, arms RED/ECN queue feedback on every
	// attacker→victim wire (both directions); nil keeps pure
	// tail-drop, which replays pre-RED histories bit-for-bit.
	LinkRED *cluster.REDSpec
	// LinkQdisc selects every wire's queueing discipline:
	// cluster.QdiscFIFO (default, replays pre-qdisc histories
	// bit-for-bit) or cluster.QdiscDRR.
	LinkQdisc string
	// LinkQuantumBytes is DRR's per-flow byte quantum; zero selects
	// the cluster default. Only meaningful with LinkQdisc DRR.
	LinkQuantumBytes uint64
}

// ClusterVictimOut is one victim machine's harvest.
type ClusterVictimOut struct {
	// Billing names the machine's billing scheme.
	Billing string
	// Run is the victim machine's ordinary run harvest (usage across
	// all schemes, stats, system account, program result).
	Run *RunOut
	// PacketsReceived counts flood frames delivered to this machine's
	// NIC.
	PacketsReceived uint64
}

// ClusterOut is one cluster scenario's harvest.
type ClusterOut struct {
	Spec ClusterRunSpec
	// Victims are in Spec.Victims order.
	Victims []ClusterVictimOut
	// PacketsSent counts frames the attacker offered per victim link.
	PacketsSent []uint64
	// PacketsDropped counts frames per victim link that the wire
	// tail-dropped or that were offered after the victim finished.
	PacketsDropped []uint64
	// ElapsedSec is the slowest machine's virtual wall time.
	ElapsedSec float64
}

// RunCluster executes one flood scenario: machine 0 is the attacker,
// machines 1..N are the victims, one attacker→victim link each. The
// attacker's packet generator injects one frame per slot onto every
// victim link for the flood window, with the same deterministic
// inter-send jitter the local flood model uses, then exits — a
// finite, replayable transmit schedule. The whole cluster advances in
// lockstep, so the run is a pure function of the spec.
func RunCluster(spec ClusterRunSpec) (*ClusterOut, error) {
	if len(spec.Victims) == 0 {
		return nil, fmt.Errorf("cluster: no victim machines in spec")
	}
	sc := &scenario{
		o: spec.Opts.norm(), family: "cluster", key: clusterKey(spec),
		window: spec.FloodSeconds, windowField: "FloodSeconds",
		roles: []role{{kind: attacker, content: "junk-ip packet generator v1", pps: spec.FloodPPS, direct: true}},
	}
	for i, v := range spec.Victims {
		sc.roles = append(sc.roles, role{kind: host, victim: v})
		sc.links = append(sc.links, cluster.LinkSpec{
			From: 0, To: i + 1,
			LatencyUs:        spec.LinkLatencyUs,
			PacketsPerSecond: spec.LinkPPS,
			QueueDepth:       spec.LinkQueueDepth,
			RED:              spec.LinkRED,
			Qdisc:            spec.LinkQdisc,
			QuantumBytes:     spec.LinkQuantumBytes,
		})
	}
	r, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	out := &ClusterOut{Spec: spec, Victims: r.hosts, ElapsedSec: r.elapsed}
	for i := range spec.Victims {
		out.PacketsSent = append(out.PacketsSent, r.cl.Link(i).Sent())
		out.PacketsDropped = append(out.PacketsDropped, r.cl.Link(i).Dropped())
	}
	return out, nil
}

func clusterKey(spec ClusterRunSpec) string {
	return fmt.Sprintf("%d-victims/%dpps", len(spec.Victims), spec.FloodPPS)
}

// hostBar is a victim host's bar, billed by the host's own scheme.
func hostBar(group, label string, v ClusterVictimOut) textplot.Bar {
	return billBar(group, label, v.Run.Victim, v.Billing)
}

// ClusterFlood regenerates the cross-machine interrupt-flood
// scenario: one attacker machine floods two victim machines running
// the same job, one billed by the commodity jiffy scheme and one by
// the process-aware scheme, at increasing flood rates. The commodity
// bill inflates with the rate; the process-aware bill does not,
// because handler time lands on the system account.
func ClusterFlood(o Options) (*Figure, error) {
	return clusterFloodWith(o, 0, 0)
}

// clusterFloodWith is ClusterFlood with explicit wire parameters: the
// lossless-replay regression test renders the artifact under an
// idealised infinite-rate link and demands byte-identity with the
// default finite-capacity wire (whose queue never binds at these
// offered rates).
func clusterFloodWith(o Options, linkPPS, queueDepth uint64) (*Figure, error) {
	o = o.norm()
	rates := []uint64{0, 10_000, 40_000}
	victims := []ClusterVictim{
		{Workload: "O", Billing: "jiffy"},
		{Workload: "O", Billing: "process-aware"},
	}
	specs := make([]ClusterRunSpec, len(rates))
	for i, pps := range rates {
		specs[i] = ClusterRunSpec{Opts: o, Victims: victims, FloodPPS: pps, LinkPPS: linkPPS, LinkQueueDepth: queueDepth}
	}
	outs, err := Campaign("cluster", specs, o.Parallelism, RunCluster, clusterKey)
	if err != nil {
		return nil, fmt.Errorf("cluster flood: %w", err)
	}

	fig := &Figure{
		ID:    "Cluster Flood",
		Title: "Cross-Machine Interrupt Flooding (one attacker PC, two victim hosts)",
		Unit:  "CPU seconds (billed by each victim host's own scheme)",
	}
	groups := []string{"jiffy-host", "procaware-host"}
	for vi, group := range groups {
		for ri, pps := range rates {
			label := "no flood"
			if pps > 0 {
				label = fmt.Sprintf("%dk pps", pps/1000)
			}
			fig.Bars = append(fig.Bars, hostBar(group, label, outs[ri].Victims[vi]))
		}
	}
	last := outs[len(outs)-1]
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("attacker machine's pktgen sent %d frames per victim link; victims received %d and %d",
			last.PacketsSent[0], last.Victims[0].PacketsReceived, last.Victims[1].PacketsReceived),
		"expectation: jiffy-billed host's system time grows with flood rate; process-aware host's bill is flat (handler time lands on the system account)",
		fmt.Sprintf("system account on the process-aware host at 40k pps: %.2f s", last.Victims[1].Run.SystemAccountSec),
	)
	return fig, nil
}
