package cluster

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/sim"
)

// fwdKernel plays the kernel for one forwarder: each delivery queues
// one frame for another machine, and every request succeeds. Any call
// the forwarder should not make hits the nil embedded Context.
type fwdKernel struct {
	guest.Context
	last      string
	seen      uint64
	queued    bool
	forwarded int
}

func (k *fwdKernel) NetAddr() guest.Addr { return 1 }

func (k *fwdKernel) NetRxWait(uint64) uint64 { k.last = "wait"; return 0 }

func (k *fwdKernel) NetRecv() (guest.Frame, bool, error) {
	k.last = "recv"
	return guest.Frame{}, false, nil
}

func (k *fwdKernel) Compute(sim.Cycles) { k.last = "compute" }

func (k *fwdKernel) NetForward(guest.Frame) (bool, error) {
	k.last = "forward"
	k.forwarded++
	return false, nil
}

// reply is the Resume for the request the forwarder last posted.
func (k *fwdKernel) reply() guest.Resume {
	switch k.last {
	case "wait":
		k.seen++
		k.queued = true
		return guest.Resume{Ret: k.seen}
	case "recv":
		if k.queued {
			k.queued = false
			return guest.Resume{OK: true, Frame: guest.Frame{Src: 3, Dst: 2}}
		}
		return guest.Resume{}
	case "forward":
		return guest.Resume{OK: true}
	}
	return guest.Resume{}
}

// TestForwarderSteadyStateAllocatesNothing drives the forwarding
// daemon through whole wait → read → lookup → forward → drain cycles
// and requires that none of them allocates.
func TestForwarderSteadyStateAllocatesNothing(t *testing.T) {
	k := &fwdKernel{}
	var ctx guest.Context = k
	step := ForwarderStep(DefaultForwardUs * 2_530)
	step = step(ctx, guest.Resume{})
	// One cycle is five activations; warm up past the first.
	cycle := func() {
		for i := 0; i < 5; i++ {
			step = step(ctx, k.reply())
		}
	}
	cycle()
	if k.last != "wait" || k.forwarded != 1 {
		t.Fatalf("after one cycle: last post %q, %d forwarded; want wait, 1", k.last, k.forwarded)
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("forwarder cycle allocates %v times, want 0", n)
	}
	if k.forwarded != 102 {
		t.Fatalf("forwarded %d frames, want 102", k.forwarded)
	}
}
