package main

import "repro"

// metric is one reported number. End-to-end metrics carry the bound
// BENCHMARK.json gives them; per-layer metrics say which end-to-end
// metric they should move, on which workload, and where they should
// stay flat (the bypass prediction).
type metric struct {
	name, unit, better string
	bound              float64
	layer              string
	moves, on, flat    string
}

// endToEnd is what a user of the simulator sees: host time to set up
// and to run simulated jobs, and the heap churn that costs it.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "vsec_per_s", unit: "vs/s", better: "higher", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "allocs_k", unit: "k", better: "lower", bound: 0.15},
}

// counter indexes the exact per-layer work counts, summed over a
// run's ops.
type counter int

const (
	kSyscalls counter = iota
	kCtxSwitches
	kPreemptions
	kTicks
	kTraceStops
	kImages
	kRestores
	kImageKB
	mMinor
	mMajor
	mSwapIns
	mSwapOuts
	dNICRx
	dDiskIOs
	dDiskWrites
	cUser
	cKernel
	cIRQ
	clSent
	clDelivered
	clDropped
	clMarked
	clForwarded
	clIncarnations
	numCounters
)

var counterNames = [numCounters]string{
	kSyscalls:      "kernel.syscalls",
	kCtxSwitches:   "kernel.ctx_switches",
	kPreemptions:   "kernel.preemptions",
	kTicks:         "kernel.ticks",
	kTraceStops:    "kernel.trace_stops",
	kImages:        "kernel.images",
	kRestores:      "kernel.restores",
	kImageKB:       "kernel.image_kb",
	mMinor:         "mem.minor_faults",
	mMajor:         "mem.major_faults",
	mSwapIns:       "mem.swap_ins",
	mSwapOuts:      "mem.swap_outs",
	dNICRx:         "device.nic_rx",
	dDiskIOs:       "device.disk_ios",
	dDiskWrites:    "device.disk_writes",
	cUser:          "cpu.user_cycles",
	cKernel:        "cpu.kernel_cycles",
	cIRQ:           "cpu.irq_cycles",
	clSent:         "cluster.frames_sent",
	clDelivered:    "cluster.frames_delivered",
	clDropped:      "cluster.frames_dropped",
	clMarked:       "cluster.frames_marked",
	clForwarded:    "cluster.router_forwarded",
	clIncarnations: "cluster.incarnations",
}

// perLayer lists every metric a traced run prints, in print order.
var perLayer = func() []metric {
	const hm, ff, fs = "host-meter", "fabric-flood", "fork-sweep"
	ms := []metric{
		{name: counterNames[kSyscalls], unit: "count", better: "lower", layer: "kernel", moves: "op_p50_ms", on: hm, flat: fs},
		{name: counterNames[kCtxSwitches], unit: "count", better: "lower", layer: "kernel", moves: "op_p50_ms", on: hm, flat: fs},
		{name: counterNames[kPreemptions], unit: "count", better: "lower", layer: "kernel", moves: "op_p50_ms", on: hm, flat: fs},
		{name: counterNames[kTicks], unit: "count", better: "lower", layer: "kernel", moves: "vsec_per_s", on: hm, flat: fs},
		{name: counterNames[kTraceStops], unit: "count", better: "lower", layer: "kernel", moves: "allocs_k", on: hm, flat: fs},
		{name: "kernel.host_us_per_vsec", unit: "us/vs", better: "lower", layer: "kernel", moves: "vsec_per_s", on: hm, flat: fs},
		{name: "kernel.snapshot_us", unit: "us", better: "lower", layer: "kernel", moves: "wall_s", on: fs, flat: hm},
		{name: "kernel.restore_us", unit: "us", better: "lower", layer: "kernel", moves: "op_p50_ms", on: fs, flat: hm},
		{name: counterNames[kImageKB], unit: "KB", better: "lower", layer: "kernel", moves: "alloc_mb", on: fs, flat: hm},
		{name: counterNames[kImages], unit: "count", better: "lower", layer: "kernel", moves: "wall_s", on: fs, flat: hm},
		{name: counterNames[kRestores], unit: "count", better: "lower", layer: "kernel", moves: "op_p50_ms", on: fs, flat: hm},
		{name: counterNames[mMinor], unit: "count", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: counterNames[mMajor], unit: "count", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: counterNames[mSwapIns], unit: "count", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: counterNames[mSwapOuts], unit: "count", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: "mem.touch_hit_ns", unit: "ns", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: "mem.touch_fault_ns", unit: "ns", better: "lower", layer: "mem", moves: "op_tail_ms", on: hm, flat: ff},
		{name: "metering.onrun_ns", unit: "ns", better: "lower", layer: "metering", moves: "op_p50_ms", on: hm, flat: fs},
		{name: "metering.ontick_ns", unit: "ns", better: "lower", layer: "metering", moves: "op_p50_ms", on: hm, flat: fs},
		{name: "sched.o1_ns", unit: "ns", better: "lower", layer: "sched", moves: "op_p50_ms", on: hm, flat: ff},
		{name: "sched.cfs_ns", unit: "ns", better: "lower", layer: "sched", moves: "op_p50_ms", on: hm, flat: ff},
		{name: counterNames[dNICRx], unit: "count", better: "lower", layer: "device", moves: "op_p50_ms", on: ff, flat: hm},
		{name: counterNames[dDiskIOs], unit: "count", better: "lower", layer: "device", moves: "op_p50_ms", on: ff, flat: hm},
		{name: counterNames[dDiskWrites], unit: "count", better: "lower", layer: "device", moves: "op_p50_ms", on: ff, flat: hm},
		{name: "device.drr_ns", unit: "ns", better: "lower", layer: "device", moves: "op_p50_ms", on: ff, flat: hm},
		{name: "sim.event_ns", unit: "ns", better: "lower", layer: "sim", moves: "vsec_per_s", on: "all", flat: "none"},
		{name: counterNames[clSent], unit: "count", better: "lower", layer: "cluster", moves: "wall_s", on: ff, flat: hm},
		{name: counterNames[clDelivered], unit: "count", better: "higher", layer: "cluster", moves: "wall_s", on: ff, flat: hm},
		{name: counterNames[clDropped], unit: "count", better: "lower", layer: "cluster", moves: "wall_s", on: ff, flat: hm},
		{name: counterNames[clMarked], unit: "count", better: "lower", layer: "cluster", moves: "wall_s", on: ff, flat: hm},
		{name: counterNames[clForwarded], unit: "count", better: "higher", layer: "cluster", moves: "op_p50_ms", on: ff, flat: hm},
		{name: counterNames[clIncarnations], unit: "count", better: "lower", layer: "cluster", moves: "op_p50_ms", on: ff, flat: hm},
		{name: "cluster.barrier_round_us", unit: "us", better: "lower", layer: "cluster", moves: "wall_s", on: ff, flat: hm},
		// Virtual cycles: a simulator-only change must leave them identical.
		{name: counterNames[cUser], unit: "cycles", better: "lower", layer: "cpu", moves: "none", on: "all", flat: "all"},
		{name: counterNames[cKernel], unit: "cycles", better: "lower", layer: "cpu", moves: "none", on: "all", flat: "all"},
		{name: counterNames[cIRQ], unit: "cycles", better: "lower", layer: "cpu", moves: "none", on: "all", flat: "all"},
	}
	for _, layer := range spanLayers {
		ms = append(ms, metric{name: "self." + layer + "_ms", unit: "ms", better: "lower", layer: layer, moves: "wall_s", on: "all", flat: "none"})
	}
	for _, id := range cpumeter.Experiments() {
		ms = append(ms, metric{name: "experiments." + id + "_s", unit: "s", better: "lower", layer: "experiments", moves: "none", on: "traced run", flat: "none"})
	}
	return append(ms,
		metric{name: "experiments.all_s", unit: "s", better: "lower", layer: "experiments", moves: "none", on: "traced run", flat: "none"},
		metric{name: "trace.overhead_frac", unit: "frac", better: "lower", layer: "trace", moves: "none", on: "traced run", flat: "none"},
	)
}()

// spanLayers are the layers spans are recorded for; "bench" is the
// benchmark's own work inside an op (output checks, digests).
var spanLayers = []string{"bench", "experiments", "kernel", "cluster", "mem", "metering", "sched", "device", "sim"}
