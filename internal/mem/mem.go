// Package mem implements the simulated demand-paged virtual memory
// subsystem: per-process address spaces, a finite physical frame
// pool, LRU reclaim, and a swap device. It exists to reproduce the
// paper's exception-flooding attack (Section IV-B4 / Fig. 11), where
// an attacker that over-commits physical memory forces the victim to
// take page faults whose handler time is billed to the victim's
// system time.
//
// The layout follows the hardware's. Each Space is a page table of
// fixed-size leaves of uint32 entries (PTEs), found through a
// directory keyed by the leaf's page number. A PTE is empty, swapped,
// or names the physical frame that holds the page. Memory owns the
// frame table: one entry per frame recording the owning page, with
// the LRU list and the free list threaded through it as int32 links.
// Neither array holds a pointer, so the garbage collector never scans
// them, and a fault or a hit allocates nothing.
package mem

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sim"
)

// DefaultPageSize is the simulated page size in bytes (x86 4 KiB).
const DefaultPageSize = 4096

// DefaultPhysBytes is the simulated physical memory. The paper's
// testbed had 2 GiB requested against less physical memory; we model
// 1 GiB of RAM so a 2 GiB attacker footprint over-commits it.
const DefaultPhysBytes = 1 << 30

// FaultKind classifies the outcome of a memory access.
type FaultKind int

const (
	// NoFault: the page was resident; the access hit.
	NoFault FaultKind = iota + 1
	// MinorFault: first touch of a demand-zero page; a frame was
	// allocated without disk I/O.
	MinorFault
	// MajorFault: the page had been swapped out; satisfying the
	// access required a disk read.
	MajorFault
)

func (k FaultKind) String() string {
	switch k {
	case NoFault:
		return "hit"
	case MinorFault:
		return "minor"
	case MajorFault:
		return "major"
	default:
		return "invalid"
	}
}

// FaultResult describes what the MMU/fault path did for one access.
type FaultResult struct {
	Kind      FaultKind
	Evictions int // frames reclaimed from other pages to satisfy this access
	SwapOuts  int // evictions that were dirty and required a disk write
	SwapIn    bool
}

// PTE values. A resident page's entry is pteFrame plus its frame's
// index in Memory.frames.
const (
	pteNone    = 0 // never touched
	pteSwapped = 1 // touched, now on swap: the next access is a major fault
	pteFrame   = 2
)

// leafBits sizes a page-table leaf: 64 entries, 256 bytes. Small
// leaves keep a sparse space's table, and the cost of cloning it,
// close to the pages it actually touched.
const (
	leafBits = 6
	leafMask = 1<<leafBits - 1
)

// leaf is one page-table leaf: the PTEs of 64 consecutive pages.
type leaf [1 << leafBits]uint32

// nilFrame ends the LRU and free lists.
const nilFrame = -1

// minFrameTable is the frame table's first allocation, in frames.
const minFrameTable = 16

// frame is one physical frame's entry in the frame table. A resident
// frame sits on the LRU list and records where its page's PTE is, a
// reverse map that lets eviction reach the PTE without a directory
// lookup; a free frame sits on the free list through next.
type frame struct {
	space      int32 // index into Memory.spaces
	leaf       int32 // index into that space's leaves
	prev, next int32 // list links, or nilFrame
	slot       uint8 // the PTE's index in its leaf
	dirty      bool
}

// Space is a per-process virtual address space.
type Space struct {
	mem  *Memory
	name string
	id   int32 // index into Memory.spaces

	// The page table: dir maps vpage>>leafBits to an index into
	// leaves, which are kept in creation order. hotKey/hotLeaf cache
	// the last directory hit (hotLeaf < 0: empty).
	dir     map[uint64]int32
	leaves  []leaf
	hotKey  uint64
	hotLeaf int32

	touched    int // pages whose PTE is not pteNone
	resident   int
	minor      uint64
	major      uint64
	evictedOut uint64 // this space's pages reclaimed by pressure
	released   bool
}

// Memory is the machine-wide physical memory manager.
type Memory struct {
	pageSize    uint64
	totalFrames int
	usedFrames  int

	// frames is the frame table. It grows by doubling, up to
	// totalFrames, as frames are first needed. Resident frames form
	// the LRU list (head is least recently used, tail most recently
	// used); released and evicted frames form the free list.
	frames           []frame
	lruHead, lruTail int32
	freeHead         int32

	spaces   []*Space
	swapIns  uint64
	swapOuts uint64
}

// New returns a Memory with the given physical size and page size.
// Zero values select the defaults.
func New(physBytes, pageSize uint64) *Memory {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if physBytes == 0 {
		physBytes = DefaultPhysBytes
	}
	return &Memory{
		pageSize:    pageSize,
		totalFrames: int(physBytes / pageSize),
		lruHead:     nilFrame,
		lruTail:     nilFrame,
		freeHead:    nilFrame,
	}
}

// PageSize returns the page size in bytes.
func (m *Memory) PageSize() uint64 { return m.pageSize }

// TotalFrames returns the number of physical frames.
func (m *Memory) TotalFrames() int { return m.totalFrames }

// UsedFrames returns the number of frames currently resident.
func (m *Memory) UsedFrames() int { return m.usedFrames }

// SwapTraffic reports cumulative swap-in and swap-out page counts.
func (m *Memory) SwapTraffic() (ins, outs uint64) { return m.swapIns, m.swapOuts }

// NewSpace creates an address space labelled name for diagnostics.
func (m *Memory) NewSpace(name string) *Space {
	s := &Space{mem: m, name: name, id: int32(len(m.spaces)), hotLeaf: -1}
	m.spaces = append(m.spaces, s)
	return s
}

// Name returns the diagnostic label.
func (s *Space) Name() string { return s.name }

// Resident returns the number of this space's pages currently in RAM.
func (s *Space) Resident() int { return s.resident }

// Faults returns cumulative minor and major fault counts.
func (s *Space) Faults() (minor, major uint64) { return s.minor, s.major }

// EvictedOut returns how many times this space's pages were reclaimed
// due to memory pressure from any space.
func (s *Space) EvictedOut() uint64 { return s.evictedOut }

// FootprintPages returns the number of pages this space has ever
// touched (resident or swapped).
func (s *Space) FootprintPages() int { return s.touched }

// leafOf returns the index of vpage's leaf, adding an empty leaf if
// it has none.
func (s *Space) leafOf(vpage uint64) int32 {
	key := vpage >> leafBits
	if s.hotLeaf < 0 || s.hotKey != key {
		i, ok := s.dir[key]
		if !ok {
			if s.dir == nil {
				s.dir = make(map[uint64]int32)
			}
			i = int32(len(s.leaves))
			s.leaves = append(s.leaves, leaf{})
			s.dir[key] = i
		}
		s.hotKey, s.hotLeaf = key, i
	}
	return s.hotLeaf
}

// Touch performs one memory access at byte address addr. write marks
// the page dirty. The returned FaultResult tells the kernel what to
// charge: minor faults cost handler CPU, major faults additionally
// cost a disk read, and each dirty eviction costs a disk write.
func (s *Space) Touch(addr uint64, write bool) FaultResult {
	if s.released {
		panic(fmt.Sprintf("mem: touch on released space %q", s.name))
	}
	m := s.mem
	vpage := addr / m.pageSize
	li, slot := s.leafOf(vpage), uint8(vpage&leafMask)
	pte := &s.leaves[li][slot]

	if e := *pte; e >= pteFrame {
		f := int32(e - pteFrame)
		m.lruMoveToTail(f)
		if write {
			m.frames[f].dirty = true
		}
		return FaultResult{Kind: NoFault}
	}

	// Fault path: need a frame. Evictions only rewrite existing
	// PTEs, so pte stays valid.
	res := FaultResult{Kind: MinorFault}
	if *pte == pteSwapped {
		res.Kind = MajorFault
		res.SwapIn = true
		m.swapIns++
		s.major++
	} else {
		s.minor++
		s.touched++
	}

	for m.usedFrames >= m.totalFrames {
		if m.lruHead == nilFrame {
			panic("mem: frame accounting corrupt: no LRU victim but frames exhausted")
		}
		res.Evictions++
		if m.evict(m.lruHead) {
			res.SwapOuts++
		}
	}

	f := m.allocFrame()
	m.frames[f] = frame{space: s.id, leaf: li, slot: slot, dirty: write}
	m.lruPushTail(f)
	*pte = uint32(f) + pteFrame
	m.usedFrames++
	s.resident++
	return res
}

// Release frees every frame the space holds and forgets its pages,
// modelling process exit. Leaves are walked in creation order, so the
// free list's order depends only on the access history.
func (s *Space) Release() {
	if s.released {
		return
	}
	m := s.mem
	for i := range s.leaves {
		for _, e := range &s.leaves[i] {
			if e >= pteFrame {
				f := int32(e - pteFrame)
				m.lruRemove(f)
				m.freeFrame(f)
				m.usedFrames--
			}
		}
	}
	s.dir, s.leaves, s.hotLeaf = nil, nil, -1
	s.touched = 0
	s.resident = 0
	s.released = true
}

// evict reclaims frame f, swapping its page out if dirty. It reports
// whether a swap-out (disk write) was required.
func (m *Memory) evict(f int32) (swappedOut bool) {
	fr := &m.frames[f]
	s := m.spaces[fr.space]
	s.leaves[fr.leaf][fr.slot] = pteSwapped
	if fr.dirty {
		m.swapOuts++
		swappedOut = true
	}
	m.lruRemove(f)
	m.freeFrame(f)
	m.usedFrames--
	s.resident--
	s.evictedOut++
	return swappedOut
}

// allocFrame takes a frame off the free list, or extends the frame
// table by one, doubling its capacity up to totalFrames when full.
// The caller has made room: usedFrames < totalFrames.
func (m *Memory) allocFrame() int32 {
	if f := m.freeHead; f != nilFrame {
		m.freeHead = m.frames[f].next
		return f
	}
	n := len(m.frames)
	if n == cap(m.frames) {
		grown := make([]frame, n, min(max(2*n, minFrameTable), m.totalFrames))
		copy(grown, m.frames)
		m.frames = grown
	}
	m.frames = m.frames[:n+1]
	return int32(n)
}

func (m *Memory) freeFrame(f int32) {
	m.frames[f] = frame{prev: nilFrame, next: m.freeHead}
	m.freeHead = f
}

func (m *Memory) lruPushTail(f int32) {
	fr := &m.frames[f]
	fr.prev, fr.next = m.lruTail, nilFrame
	if m.lruTail != nilFrame {
		m.frames[m.lruTail].next = f
	} else {
		m.lruHead = f
	}
	m.lruTail = f
}

func (m *Memory) lruRemove(f int32) {
	fr := &m.frames[f]
	if fr.prev != nilFrame {
		m.frames[fr.prev].next = fr.next
	} else {
		m.lruHead = fr.next
	}
	if fr.next != nilFrame {
		m.frames[fr.next].prev = fr.prev
	} else {
		m.lruTail = fr.prev
	}
}

func (m *Memory) lruMoveToTail(f int32) {
	if m.lruTail == f {
		return
	}
	m.lruRemove(f)
	m.lruPushTail(f)
}

// DiskLatency models the swap device: cycles of wall time one page of
// swap I/O takes. At 2.53 GHz, 5 ms (2007-era 7200 rpm seek+transfer)
// is ~12.6 M cycles. The process is blocked, not charged CPU, for
// this period; only the handler cost from the CPU cost model is
// charged as stime.
func DiskLatency(freq sim.Hz) sim.Cycles {
	return sim.Cycles(freq / 200) // 5 ms
}

// Clone returns an independent deep copy of the whole memory
// subsystem for checkpoint restore, plus the old→new Space mapping so
// callers can re-point their Space references. The frame table and
// every page-table leaf are copied verbatim, so the copy's LRU and
// free lists, and with them its future eviction order, are the
// original's; the cost grows with frames and leaves in use only.
func (m *Memory) Clone() (*Memory, map[*Space]*Space) {
	cm := *m
	cm.frames = slices.Clone(m.frames)
	cm.spaces = make([]*Space, len(m.spaces))
	smap := make(map[*Space]*Space, len(m.spaces))
	for i, s := range m.spaces {
		cs := *s
		cs.mem = &cm
		cs.dir = maps.Clone(s.dir)
		cs.leaves = slices.Clone(s.leaves)
		cm.spaces[i] = &cs
		smap[s] = &cs
	}
	return &cm, smap
}
