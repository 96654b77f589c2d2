package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFirstTouchIsMinorFault(t *testing.T) {
	m := New(16*DefaultPageSize, 0)
	s := m.NewSpace("a")
	res := s.Touch(0, false)
	if res.Kind != MinorFault {
		t.Fatalf("first touch = %v, want minor", res.Kind)
	}
	if res2 := s.Touch(100, false); res2.Kind != NoFault {
		t.Fatalf("same-page retouch = %v, want hit", res2.Kind)
	}
	minor, major := s.Faults()
	if minor != 1 || major != 0 {
		t.Fatalf("faults = %d/%d, want 1/0", minor, major)
	}
}

func TestEvictionAndMajorFault(t *testing.T) {
	m := New(2*DefaultPageSize, 0) // two frames only
	s := m.NewSpace("a")
	s.Touch(0*DefaultPageSize, true) // dirty page 0
	s.Touch(1*DefaultPageSize, false)
	res := s.Touch(2*DefaultPageSize, false) // must evict LRU (page 0, dirty)
	if res.Evictions != 1 || res.SwapOuts != 1 {
		t.Fatalf("evictions/swapouts = %d/%d, want 1/1", res.Evictions, res.SwapOuts)
	}
	back := s.Touch(0, false) // page 0 was swapped out
	if back.Kind != MajorFault || !back.SwapIn {
		t.Fatalf("return touch = %+v, want major fault with swap-in", back)
	}
	ins, outs := m.SwapTraffic()
	if ins != 1 || outs != 1 {
		t.Fatalf("swap traffic = %d/%d, want 1/1", ins, outs)
	}
}

func TestLRUOrder(t *testing.T) {
	m := New(2*DefaultPageSize, 0)
	s := m.NewSpace("a")
	s.Touch(0*DefaultPageSize, false)
	s.Touch(1*DefaultPageSize, false)
	s.Touch(0*DefaultPageSize, false) // page 0 now MRU, page 1 is LRU
	s.Touch(2*DefaultPageSize, false) // evicts page 1
	if res := s.Touch(0, false); res.Kind != NoFault {
		t.Fatalf("page 0 should have survived (MRU), got %v", res.Kind)
	}
	if res := s.Touch(1*DefaultPageSize, false); res.Kind != MajorFault {
		t.Fatalf("page 1 should have been evicted, got %v", res.Kind)
	}
}

func TestCleanEvictionNeedsNoSwapOut(t *testing.T) {
	m := New(1*DefaultPageSize, 0)
	s := m.NewSpace("a")
	s.Touch(0, false) // clean
	res := s.Touch(DefaultPageSize, false)
	if res.Evictions != 1 || res.SwapOuts != 0 {
		t.Fatalf("clean eviction = %+v, want 1 eviction 0 swapouts", res)
	}
}

func TestCrossSpacePressure(t *testing.T) {
	m := New(8*DefaultPageSize, 0)
	victim := m.NewSpace("victim")
	attacker := m.NewSpace("attacker")
	for i := uint64(0); i < 4; i++ {
		victim.Touch(i*DefaultPageSize, false)
	}
	// Attacker streams through 16 pages, evicting everything.
	for i := uint64(0); i < 16; i++ {
		attacker.Touch(i*DefaultPageSize, true)
	}
	if victim.Resident() != 0 {
		t.Fatalf("victim resident = %d, want 0 after attacker sweep", victim.Resident())
	}
	if victim.EvictedOut() != 4 {
		t.Fatalf("victim evictions = %d, want 4", victim.EvictedOut())
	}
	// Victim's next touches are all major faults: the attack's effect.
	for i := uint64(0); i < 4; i++ {
		if res := victim.Touch(i*DefaultPageSize, false); res.Kind != MajorFault {
			t.Fatalf("victim retouch page %d = %v, want major", i, res.Kind)
		}
	}
}

func TestRelease(t *testing.T) {
	m := New(4*DefaultPageSize, 0)
	s := m.NewSpace("a")
	for i := uint64(0); i < 4; i++ {
		s.Touch(i*DefaultPageSize, false)
	}
	if m.UsedFrames() != 4 {
		t.Fatalf("used = %d, want 4", m.UsedFrames())
	}
	s.Release()
	if m.UsedFrames() != 0 {
		t.Fatalf("used after release = %d, want 0", m.UsedFrames())
	}
	s.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("touch after release did not panic")
		}
	}()
	s.Touch(0, false)
}

func TestFrameAccountingInvariant(t *testing.T) {
	// Property: usedFrames never exceeds totalFrames and equals the
	// sum of per-space residency, under arbitrary access patterns.
	f := func(addrs []uint16, writes []bool) bool {
		m := New(4*DefaultPageSize, 0)
		a := m.NewSpace("a")
		b := m.NewSpace("b")
		for i, ad := range addrs {
			w := i < len(writes) && writes[i]
			sp := a
			if ad%2 == 1 {
				sp = b
			}
			sp.Touch(uint64(ad)*97, w)
			if m.UsedFrames() > m.TotalFrames() {
				return false
			}
			if a.Resident()+b.Resident() != m.UsedFrames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskLatency(t *testing.T) {
	if got := DiskLatency(2_530_000_000); got != 12_650_000 {
		t.Fatalf("DiskLatency = %d, want 12650000 (5ms at 2.53GHz)", got)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{NoFault: "hit", MinorFault: "minor", MajorFault: "major", FaultKind(0): "invalid"} {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

// spaceState is everything a Space reports about itself.
type spaceState struct {
	resident, footprint int
	minor, major        uint64
	evicted             uint64
}

func stateOf(s *Space) spaceState {
	minor, major := s.Faults()
	return spaceState{s.Resident(), s.FootprintPages(), minor, major, s.EvictedOut()}
}

// memState is everything a Memory and its spaces report.
type memState struct {
	used      int
	ins, outs uint64
	spaces    []spaceState
}

func memStateOf(m *Memory, spaces ...*Space) memState {
	st := memState{used: m.UsedFrames()}
	st.ins, st.outs = m.SwapTraffic()
	for _, s := range spaces {
		st.spaces = append(st.spaces, stateOf(s))
	}
	return st
}

// pressureTail is an access tail over two spaces that faults, hits,
// evicts and swaps: a hog stream interleaved with a victim's working
// set, at addresses spread over several page-table leaves.
func pressureTail(n int) (addrs []uint64, hog []bool) {
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			addrs = append(addrs, uint64(i%11)*DefaultPageSize+1<<32)
			hog = append(hog, false)
		} else {
			addrs = append(addrs, uint64(i*7%97)*DefaultPageSize)
			hog = append(hog, true)
		}
	}
	return addrs, hog
}

func TestCloneEquivalence(t *testing.T) {
	m := New(16*DefaultPageSize, 0)
	victim, hog := m.NewSpace("victim"), m.NewSpace("hog")
	addrs, isHog := pressureTail(300)
	for i, a := range addrs[:150] {
		sp := victim
		if isHog[i] {
			sp = hog
		}
		sp.Touch(a, i%2 == 0)
	}
	if m.UsedFrames() != m.TotalFrames() {
		t.Fatalf("setup left %d/%d frames used, want memory under pressure", m.UsedFrames(), m.TotalFrames())
	}
	before := memStateOf(m, victim, hog)

	cm, smap := m.Clone()
	cvictim, chog := smap[victim], smap[hog]
	if got := memStateOf(cm, cvictim, chog); !reflect.DeepEqual(got, before) {
		t.Fatalf("clone state = %+v, want %+v", got, before)
	}
	replay := func(v, h *Space) []FaultResult {
		var out []FaultResult
		for i, a := range addrs[150:] {
			sp := v
			if isHog[150+i] {
				sp = h
			}
			out = append(out, sp.Touch(a, i%3 == 0))
		}
		return out
	}
	cloneRes := replay(cvictim, chog)
	if got := memStateOf(m, victim, hog); !reflect.DeepEqual(got, before) {
		t.Fatalf("original changed by the clone's accesses: %+v, want %+v", got, before)
	}
	origRes := replay(victim, hog)
	if !reflect.DeepEqual(cloneRes, origRes) {
		t.Fatalf("clone and original diverged:\n clone %v\n orig  %v", cloneRes, origRes)
	}
	if got, want := memStateOf(cm, cvictim, chog), memStateOf(m, victim, hog); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone counters %+v, original %+v", got, want)
	}
	var evictions int
	for _, r := range origRes {
		evictions += r.Evictions
	}
	if evictions == 0 {
		t.Fatal("replayed tail evicted nothing; the test exercises no pressure")
	}
}

func TestTouchHitAllocatesNothing(t *testing.T) {
	m := New(64*DefaultPageSize, 0)
	s := m.NewSpace("a")
	for i := uint64(0); i < 64; i++ {
		s.Touch(i*DefaultPageSize, false)
	}
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		s.Touch(i%64*DefaultPageSize, i%2 == 0)
		i++
	}); n != 0 {
		t.Fatalf("hit path allocates %v per touch, want 0", n)
	}
}

func TestTouchEvictAllocatesNothing(t *testing.T) {
	m := New(64*DefaultPageSize, 0)
	s := m.NewSpace("a")
	// Warm up: every page's leaf exists and the frame table is full.
	for i := uint64(0); i < 256; i++ {
		s.Touch(i*DefaultPageSize, true)
	}
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		if res := s.Touch(i%256*DefaultPageSize, true); res.Evictions != 1 {
			t.Fatalf("touch %d evicted %d frames, want 1", i, res.Evictions)
		}
		i++
	}); n != 0 {
		t.Fatalf("steady-state eviction allocates %v per touch, want 0", n)
	}
}

func TestFrameTableGrowsOnDemand(t *testing.T) {
	m := New(DefaultPhysBytes, 0)
	if cap(m.frames) != 0 {
		t.Fatalf("new Memory preallocated %d frames", cap(m.frames))
	}
	s := m.NewSpace("a")
	for i := uint64(0); i < 100; i++ {
		s.Touch(i*DefaultPageSize, false)
	}
	if c := cap(m.frames); c < 100 || c > 2*100 {
		t.Fatalf("frame table capacity %d after 100 frames, want within 2x", c)
	}
	small := New(20*DefaultPageSize, 0)
	sp := small.NewSpace("a")
	for i := uint64(0); i < 100; i++ {
		sp.Touch(i*DefaultPageSize, false)
	}
	if c := cap(small.frames); c != 20 {
		t.Fatalf("frame table capacity %d, want capped at the 20 frames of RAM", c)
	}
}

// TestPageTableHoldsNoPointers keeps the PTE leaves and the frame
// table pointer-free, so the garbage collector never scans them.
func TestPageTableHoldsNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, ty := range []reflect.Type{reflect.TypeOf(leaf{}), reflect.TypeOf(frame{})} {
		if !pointerFree(ty) {
			t.Errorf("%v holds a pointer", ty)
		}
	}
}

// sink keeps benchmark results alive.
var sink FaultResult

func BenchmarkTouchHit(b *testing.B) {
	const pages = 1024
	s := New(pages*DefaultPageSize, 0).NewSpace("bench")
	for i := uint64(0); i < pages; i++ {
		s.Touch(i*DefaultPageSize, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Touch(uint64(i%pages)*DefaultPageSize, i&1 == 0)
	}
}

// BenchmarkTouchEvict cycles through twice as many pages as there are
// frames, after a warm-up pass, so every touch evicts one dirty page.
func BenchmarkTouchEvict(b *testing.B) {
	const frames = 1024
	s := New(frames*DefaultPageSize, 0).NewSpace("bench")
	for i := uint64(0); i < 2*frames; i++ {
		s.Touch(i*DefaultPageSize, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Touch(uint64(i%(2*frames))*DefaultPageSize, true)
	}
}

// BenchmarkTouchStream is the exception flood's pattern: one op is a
// fresh Memory whose hog first-touches a footprint twice its RAM.
func BenchmarkTouchStream(b *testing.B) {
	const frames = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(frames*DefaultPageSize, 0).NewSpace("hog")
		for p := uint64(0); p < 2*frames; p++ {
			sink = s.Touch(p*DefaultPageSize, true)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*frames), "ns/touch")
}

// BenchmarkClone clones a machine-sized Memory under pressure: two
// spaces holding 256 frames between them, with pages on swap.
func BenchmarkClone(b *testing.B) {
	m := New(256*DefaultPageSize, 0)
	victim, hog := m.NewSpace("victim"), m.NewSpace("hog")
	for i := uint64(0); i < 64; i++ {
		victim.Touch(i*DefaultPageSize, i%2 == 0)
	}
	for i := uint64(0); i < 512; i++ {
		hog.Touch(0x4000_0000+i*DefaultPageSize, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}
