package mem

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// refKey names one page of one space in the reference model.
type refKey struct {
	space int
	vpage uint64
}

type refPage struct{ resident, swapped, dirty bool }

// refMem is the page-table contract written as plainly as possible:
// a map of page states and an LRU slice, least recently used first.
// Memory must make the same fault, eviction and swap decisions.
type refMem struct {
	frames    int
	lru       []refKey
	pages     map[refKey]refPage
	ins, outs uint64
}

func (r *refMem) touch(k refKey, write bool) FaultResult {
	p := r.pages[k]
	if p.resident {
		i := slices.Index(r.lru, k)
		r.lru = append(slices.Delete(r.lru, i, i+1), k)
		p.dirty = p.dirty || write
		r.pages[k] = p
		return FaultResult{Kind: NoFault}
	}
	res := FaultResult{Kind: MinorFault}
	if p.swapped {
		res.Kind, res.SwapIn = MajorFault, true
		r.ins++
	}
	for len(r.lru) >= r.frames {
		v := r.lru[0]
		r.lru = r.lru[1:]
		res.Evictions++
		if r.pages[v].dirty {
			res.SwapOuts++
			r.outs++
		}
		r.pages[v] = refPage{swapped: true}
	}
	r.pages[k] = refPage{resident: true, dirty: write}
	r.lru = append(r.lru, k)
	return res
}

func (r *refMem) release(space int) {
	r.lru = slices.DeleteFunc(r.lru, func(k refKey) bool { return k.space == space })
	//simlint:unordered-ok deletes every matching key; the result is independent of order
	for k := range r.pages {
		if k.space == space {
			delete(r.pages, k)
		}
	}
}

func (r *refMem) clone() *refMem {
	c := *r
	c.lru = slices.Clone(r.lru)
	c.pages = make(map[refKey]refPage, len(r.pages))
	//simlint:unordered-ok copies into a map keyed identically
	for k, p := range r.pages {
		c.pages[k] = p
	}
	return &c
}

// footprint counts the reference's pages of one space.
func (r *refMem) footprint(space int) int {
	n := 0
	//simlint:unordered-ok counts; the result is independent of order
	for k := range r.pages {
		if k.space == space {
			n++
		}
	}
	return n
}

// checkInvariants verifies the frame and page-table bookkeeping of m
// against itself and against the reference model.
func checkInvariants(t *testing.T, m *Memory, spaces []*Space, ids []int, ref *refMem) {
	t.Helper()
	used := m.UsedFrames()
	if used > m.TotalFrames() {
		t.Fatalf("used %d > total %d", used, m.TotalFrames())
	}
	resident := 0
	for _, s := range m.spaces {
		resident += s.Resident()
	}
	if resident != used {
		t.Fatalf("Σ resident %d != used %d", resident, used)
	}
	lru, prev := 0, int32(nilFrame)
	for f := m.lruHead; f != nilFrame; f = m.frames[f].next {
		fr := m.frames[f]
		if fr.prev != prev {
			t.Fatalf("frame %d: prev link %d, want %d", f, fr.prev, prev)
		}
		if got := m.spaces[fr.space].leaves[fr.leaf][fr.slot]; got != uint32(f)+pteFrame {
			t.Fatalf("frame %d's PTE (leaf %d slot %d) is %d", f, fr.leaf, fr.slot, got)
		}
		if lru++; lru > len(m.frames) {
			t.Fatal("LRU list has a cycle")
		}
		prev = f
	}
	if m.lruTail != prev {
		t.Fatalf("LRU tail %d, want %d", m.lruTail, prev)
	}
	if lru != used {
		t.Fatalf("LRU length %d != used %d", lru, used)
	}
	free := 0
	for f := m.freeHead; f != nilFrame; f = m.frames[f].next {
		if free++; free > len(m.frames) {
			t.Fatal("free list has a cycle")
		}
	}
	if used+free != len(m.frames) {
		t.Fatalf("used %d + free %d != %d frames allocated", used, free, len(m.frames))
	}
	for i, s := range spaces {
		if got, want := s.FootprintPages(), ref.footprint(ids[i]); got != want {
			t.Fatalf("space %q footprint %d, want %d distinct pages", s.Name(), got, want)
		}
	}
	if ins, outs := m.SwapTraffic(); ins != ref.ins || outs != ref.outs {
		t.Fatalf("swap traffic %d/%d, reference %d/%d", ins, outs, ref.ins, ref.outs)
	}
}

// FuzzTouch runs an arbitrary access sequence over two spaces and
// checks the bookkeeping invariants and the reference model after
// every operation. Each operation is a control byte: its low bit picks
// the space and bit 1 marks a write; its top three bits pick the kind:
//
//	0-4  touch at byte b*pageSize/2, b the next byte
//	5    touch at the 64-bit address in the next 8 bytes
//	6    Release the space and replace it with a fresh one
//	7    Clone, check the original, and go on with the copy
//
// The page size is any value in [1, 8192]; RAM holds 1-32 frames.
func FuzzTouch(f *testing.F) {
	f.Add(uint16(4095), uint8(3), []byte{0x00, 1, 0x02, 2, 0x01, 3, 0x00, 4, 0x02, 1, 0xa0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, pageSize uint16, frames uint8, ops []byte) {
		ps := uint64(pageSize)%8192 + 1
		m := New(uint64(frames%32+1)*ps, ps)
		spaces := []*Space{m.NewSpace("a"), m.NewSpace("b")}
		ids := []int{0, 1}
		nextID := 2
		ref := &refMem{frames: m.TotalFrames(), pages: map[refKey]refPage{}}
		for len(ops) > 0 {
			ctl := ops[0]
			ops = ops[1:]
			which, write := int(ctl&1), ctl&2 != 0
			var addr uint64
			switch kind := ctl >> 5; {
			case kind <= 4:
				if len(ops) < 1 {
					return
				}
				addr = uint64(ops[0]) * ps / 2
				ops = ops[1:]
			case kind == 5:
				if len(ops) < 8 {
					return
				}
				addr = binary.LittleEndian.Uint64(ops)
				ops = ops[8:]
			case kind == 6:
				spaces[which].Release()
				ref.release(ids[which])
				spaces[which] = m.NewSpace("fresh")
				ids[which] = nextID
				nextID++
				checkInvariants(t, m, spaces, ids, ref)
				continue
			default:
				orig, origSpaces, origRef := m, spaces, ref
				before := memStateOf(orig, origSpaces...)
				cm, smap := m.Clone()
				m, ref = cm, ref.clone()
				spaces = []*Space{smap[spaces[0]], smap[spaces[1]]}
				// The copy's first access must not show in the original.
				if got, want := spaces[which].Touch(0, true), ref.touch(refKey{ids[which], 0}, true); got != want {
					t.Fatalf("clone's first touch = %+v, reference %+v", got, want)
				}
				if after := memStateOf(orig, origSpaces...); !reflect.DeepEqual(after, before) {
					t.Fatalf("original changed by its clone's access: %+v, want %+v", after, before)
				}
				checkInvariants(t, orig, origSpaces, ids, origRef)
				checkInvariants(t, m, spaces, ids, ref)
				continue
			}
			got := spaces[which].Touch(addr, write)
			want := ref.touch(refKey{ids[which], addr / ps}, write)
			if got != want {
				t.Fatalf("touch %#x (page size %d) on %q = %+v, reference %+v", addr, ps, spaces[which].Name(), got, want)
			}
			checkInvariants(t, m, spaces, ids, ref)
		}
	})
}
