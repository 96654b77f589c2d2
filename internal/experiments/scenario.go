// The scenario engine behind the six flood artifacts. A flood family's
// Run* function translates its spec into a scenario — machine roles
// in index order, the fabric between them, and the fault overlays —
// and runScenario does the work every family shares: it resolves the
// defaults, boots each role, runs the cluster in lockstep, checks the
// victim hosts finished, and hands back what the family's harvest
// reads.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/guest"
	"repro/internal/kernel"
	"repro/internal/metering"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// roleKind is what a scenario machine does.
type roleKind int

const (
	// attacker runs a packet generator.
	attacker roleKind = iota
	// sender runs the well-behaved ack-paced flow.
	sender
	// router runs the forwarding daemon.
	router
	// host runs the billed victim workload, plus the flow's echo
	// daemon when echo is set.
	host
	// neighbour mounts the host's swap and runs the memory hog when
	// hog is set.
	neighbour
)

// role is one machine of a scenario. Only the fields of its kind
// apply.
type role struct {
	kind roleKind
	// name names the machine in cluster errors; empty leaves it
	// unnamed.
	name string
	// content is the attacker's or sender's program identity.
	content string

	// pps is the attacker's offered rate; zero keeps it silent. dst is
	// the machine an attacker's frames or a sender's flow address, and
	// bytes sizes the junk frames (zero sends minimum frames). direct
	// injects each slot's frame onto every one of the attacker's links
	// itself, billing one sendto per slot, instead of transmitting to
	// dst through the NIC's tx path.
	pps    uint64
	dst    int
	bytes  uint32
	direct bool

	// flow is the sender's transfer; Peer is filled from dst. Zero
	// Frames keeps the sender silent.
	flow AckFlowConfig

	// lookupUs is the router's per-frame lookup work.
	lookupUs uint64

	// victim is the host's billed job; echo, when nonzero, is the flow
	// id its echo daemon acks (which makes the host a service
	// machine), running at echoNice.
	victim   ClusterVictim
	echo     uint32
	echoNice int

	// hog arms the neighbour's memory hog over memBytes of RAM.
	hog      bool
	memBytes uint64
}

// scenario is one flood run as data.
type scenario struct {
	// o is the run's normalised options.
	o Options
	// family and key name the run in errors: "<family>: ..." for a bad
	// spec, "<family> <key>: ..." for a failed run.
	family, key string
	// window is the attackers' transmit window, or the hog's pressure
	// window, in virtual seconds; windowField names it in errors. Zero
	// derives 1.5x the longest host workload's baseline.
	window      float64
	windowField string

	roles  []role
	links  []cluster.LinkSpec
	routes []cluster.RouteSpec
	swap   *cluster.SharedSwapSpec

	// faults arms the same syscall fault table on every machine.
	faults *kernel.FaultSpec
	// crashSec and restartSec, when nonzero, kill every router that
	// many virtual seconds into the run and reboot it that many after.
	crashSec, restartSec float64
}

// ran is a finished scenario's handles for the family's harvest.
type ran struct {
	cl *cluster.Cluster
	// hosts are the victim hosts' harvests, in machine order.
	hosts []ClusterVictimOut
	// pids lists, per machine, the PID its role's guest got at each
	// boot (the router's across incarnations, the hog's).
	pids [][]proc.PID
	// launches holds each host's launched workload, by machine.
	launches []*launched
	// flow is the scenario's sender's harvest.
	flow AckFlowStats
	// elapsed is the slowest machine's virtual wall time.
	elapsed float64
}

// checkSeconds rejects a negative, NaN or infinite duration, naming
// its spec field.
func checkSeconds(family, field string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: %s %g must be a finite, non-negative number of seconds", family, field, v)
	}
	return nil
}

// derivedWindow is 1.5x the longest baseline among the victims' jobs,
// so a flood outlives every victim.
func derivedWindow(o Options, victims []ClusterVictim) (float64, error) {
	var longest float64
	for _, v := range victims {
		w, err := workloads.SpecByKey(v.Workload)
		if err != nil {
			return 0, err
		}
		if s := w.BaselineSeconds * o.Scale; s > longest {
			longest = s
		}
	}
	return longest * 1.5, nil
}

// orDefault returns v, or def when v is zero.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// billingOf resolves a victim's billing scheme (jiffy by default).
func billingOf(v ClusterVictim) string {
	return orDefault(v.Billing, "jiffy")
}

// clusterSeed derives machine i's seed from the campaign seed:
// deterministic, collision-free for small i, and distinct from the
// single-machine runs of the same campaign.
func clusterSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i+1)
}

// victimAccountants builds the three schemes with the billing scheme
// first, so the machine's getrusage-alike reads it, and the other two
// after it in Schemes order.
func victimAccountants(billing string, tick sim.Cycles) ([]metering.Accountant, error) {
	all := []metering.Accountant{metering.NewJiffy(tick), metering.NewTSC(), metering.NewProcessAware()} // Schemes order
	for i, s := range Schemes {
		if s == billing {
			return append([]metering.Accountant{all[i]}, append(all[:i:i], all[i+1:]...)...), nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown billing scheme %q (have %v)", billing, Schemes)
}

// clusterElapsedSec reports the slowest machine's virtual wall time —
// the shared ElapsedSec semantics of every cluster harvest.
func clusterElapsedSec(cl *cluster.Cluster) float64 {
	var sec float64
	for i := 0; i < cl.Size(); i++ {
		if s := cl.Machine(i).Clock().Seconds(cl.Machine(i).Clock().Now()); s > sec {
			sec = s
		}
	}
	return sec
}

// resolve checks the scenario's durations and derives a zero window.
func (sc *scenario) resolve() error {
	for _, d := range []struct {
		field string
		v     float64
	}{{sc.windowField, sc.window}, {"RouterCrashSec", sc.crashSec}, {"RouterRestartSec", sc.restartSec}} {
		if err := checkSeconds(sc.family, d.field, d.v); err != nil {
			return err
		}
	}
	if sc.restartSec > 0 && sc.crashSec == 0 {
		return fmt.Errorf("%s: RouterRestartSec %gs without RouterCrashSec (nothing to restart)", sc.family, sc.restartSec)
	}
	if sc.window == 0 {
		var victims []ClusterVictim
		for _, r := range sc.roles {
			if r.kind == host {
				victims = append(victims, r.victim)
			}
		}
		var err error
		if sc.window, err = derivedWindow(sc.o, victims); err != nil {
			return err
		}
	}
	if sc.crashSec > 0 && sc.crashSec >= 4*sc.window {
		return fmt.Errorf("%s: RouterCrashSec %gs is past the scenario horizon (~%gs flood): the crash would never land", sc.family, sc.crashSec, sc.window)
	}
	return nil
}

// runScenario builds the scenario's cluster, runs it to completion,
// and harvests every victim host.
func runScenario(sc *scenario) (*ran, error) {
	o := sc.o
	if err := sc.resolve(); err != nil {
		return nil, err
	}
	res := &ran{
		pids:     make([][]proc.PID, len(sc.roles)),
		launches: make([]*launched, len(sc.roles)),
	}
	tick := sim.Cycles(uint64(o.Freq) / o.HZ)

	machines := make([]cluster.MachineSpec, len(sc.roles))
	for i, r := range sc.roles {
		ms := cluster.MachineSpec{Name: r.name, Config: o.machineConfig()}
		ms.Config.Seed = clusterSeed(o.Seed, i)
		ms.Config.Faults = sc.faults
		switch r.kind {
		case router:
			ms.Service = true
			ms.CrashAt = sim.Cycles(sc.crashSec * float64(o.Freq))
			ms.RestartAfter = sim.Cycles(sc.restartSec * float64(o.Freq))
		case host:
			// Only an echo daemon makes a host a service machine;
			// without one the workload keeps exact stall detection.
			ms.Service = r.echo != 0
			accts, err := victimAccountants(billingOf(r.victim), tick)
			if err != nil {
				return nil, err
			}
			ms.Config.Accountants = accts
		case neighbour:
			ms.Config.PhysMemBytes = r.memBytes
		}
		ms.Boot = func(c *cluster.Cluster, m *kernel.Machine) error {
			return sc.boot(c, m, i, res)
		}
		machines[i] = ms
	}

	cl, err := cluster.New(cluster.Config{Machines: machines, Links: sc.links, Routes: sc.routes, SharedSwap: sc.swap})
	if err != nil {
		return nil, err
	}
	if err := cl.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w", sc.family, sc.key, err)
	}
	res.cl, res.elapsed = cl, clusterElapsedSec(cl)
	for i, r := range sc.roles {
		if r.kind != host {
			continue
		}
		// A service host's quiesce would also retire a stalled
		// workload silently; make that an error instead of a half-run
		// harvest.
		l := res.launches[i]
		if r.echo != 0 && l.prog != nil && !l.prog.Done {
			return nil, fmt.Errorf("%s %s: victim workload retired before completion (stalled behind the service daemon?)", sc.family, sc.key)
		}
		m := cl.Machine(i)
		res.hosts = append(res.hosts, ClusterVictimOut{
			Billing:         billingOf(r.victim),
			Run:             l.harvest(m),
			PacketsReceived: m.NIC().Received(),
		})
	}
	return res, nil
}

// boot spawns machine i's role guests. It runs once per incarnation.
func (sc *scenario) boot(c *cluster.Cluster, m *kernel.Machine, i int, res *ran) error {
	r, o := sc.roles[i], sc.o
	perUs := sim.Cycles(uint64(o.Freq) / 1_000_000)
	spawn := func(cfg kernel.SpawnConfig) error {
		p, err := m.Spawn(cfg)
		if p != nil {
			res.pids[i] = append(res.pids[i], p.PID)
		}
		return err
	}
	switch r.kind {
	case attacker:
		if r.pps == 0 {
			return nil // silent baseline: the machine finishes at boot
		}
		packets := uint64(sc.window * float64(r.pps))
		if r.direct {
			var targets []linkTarget
			for li, l := range sc.links {
				if l.From == i {
					targets = append(targets, linkTarget{c.Link(li), cluster.Frame{Src: c.AddrOf(i), Dst: c.AddrOf(l.To)}})
				}
			}
			return spawn(guestSpawn(o, "pktgen", r.content, linkFloodStep(o.Freq, r.pps, packets, targets)))
		}
		return spawn(guestSpawn(o, "pktgen", r.content,
			floodBodyStep(o.Freq, r.pps, packets, guest.Frame{Dst: c.AddrOf(r.dst), Bytes: r.bytes})))
	case sender:
		if r.flow.Frames == 0 {
			return nil
		}
		cfg := r.flow
		cfg.Peer = c.AddrOf(r.dst)
		return spawn(guestSpawn(o, "flowsend", r.content, AckPacedSenderStep(cfg, &res.flow)))
	case router:
		return spawn(guestSpawn(o, "fwd", "store-and-forward router daemon v1",
			cluster.ForwarderStep(sim.Cycles(r.lookupUs)*perUs)))
	case host:
		if r.echo != 0 {
			echod := guestSpawn(o, "echod", "per-flow ack echo daemon v1", AckEchoStep(r.echo))
			echod.Nice = r.echoNice
			if _, err := m.Spawn(echod); err != nil {
				return err
			}
		}
		l, err := launchSpec(m, RunSpec{Opts: o, Workload: r.victim.Workload, VictimNice: r.victim.Nice})
		if err != nil {
			return err
		}
		res.launches[i] = l
		return nil
	case neighbour:
		if !r.hog {
			return nil // baseline: the neighbour is quiet
		}
		return spawn(memHog(r.memBytes, sc.window))
	}
	return nil
}
