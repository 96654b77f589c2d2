package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro"
	"repro/internal/kernel"
)

// counts are exact per-layer work counts.
type counts [numCounters]uint64

func (c *counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) minus(o counts) counts {
	for k, v := range o {
		c[k] -= v
	}
	return c
}

// busySeconds is the simulated CPU time the counted machines spent
// busy (user, kernel and interrupt cycles), in virtual seconds. Idle
// virtual time is left out: skipping it costs the simulator almost
// nothing, and its length varies with the seed.
func (c counts) busySeconds() float64 {
	return float64(c[cUser]+c[cKernel]+c[cIRQ]) / float64(cpumeter.DefaultCPUHz)
}

// statsCounts reads a thread group's kernel counters.
func statsCounts(s kernel.Stats) counts {
	return counts{
		kSyscalls:    s.Syscalls,
		kCtxSwitches: s.ContextSwitches,
		kPreemptions: s.Preemptions,
		kTicks:       s.TicksAbsorbed,
		kTraceStops:  s.TraceStops,
		mMinor:       s.MinorFaults,
		mMajor:       s.MajorFaults,
	}
}

// machineCounts reads a machine's memory, device and CPU counters.
func machineCounts(m *cpumeter.Machine) counts {
	ins, outs := m.Mem().SwapTraffic()
	user, kern, irq := m.CPU().Utilization()
	return counts{
		mSwapIns:    ins,
		mSwapOuts:   outs,
		dNICRx:      m.NIC().Received(),
		dDiskIOs:    m.Disk().IOs(),
		dDiskWrites: m.Disk().Writes(),
		cUser:       uint64(user),
		cKernel:     uint64(kern),
		cIRQ:        uint64(irq),
	}
}

// runCounts is a finished job's victim and machine counters.
func runCounts(out *cpumeter.RunOut) counts {
	c := statsCounts(out.VictimStats)
	if out.Machine != nil {
		c.add(machineCounts(out.Machine))
	}
	return c
}

// digest hashes pointer-free values printed with %+v (maps print in
// key order), so equal outputs give equal digests across processes.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runParts is the observable output of a job, without its pointers.
func runParts(out *cpumeter.RunOut) []any {
	parts := []any{out.Victim, out.VictimStats, out.Attackers, out.SystemAccountSec, out.ElapsedSec, out.Measurements}
	if out.Result != nil {
		parts = append(parts, *out.Result)
	}
	return parts
}

// checkVictim reports a victim that did not finish or whose output
// differs from the same program's output without attack: the threat
// model lets an attacker inflate the bill, never corrupt the result.
func checkVictim(what string, out *cpumeter.RunOut, want string) []string {
	switch {
	case out == nil || out.Result == nil:
		return []string{what + ": no victim result"}
	case !out.Result.Done:
		return []string{what + ": victim did not finish"}
	case out.Result.Output != want:
		return []string{fmt.Sprintf("%s: victim output %.40q, want %.40q", what, out.Result.Output, want)}
	}
	return nil
}
