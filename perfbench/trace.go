package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one op share its id; spans outside any op (a
// checkpoint, the probe loops) carry op -1. Spans are kept compact,
// with the layer and function interned, because a fork-sweep run
// records over a million.
type span struct {
	site       uint16 // index into tracer.sites
	op, parent int32
	start, end time.Duration // since the tracer started
}

// site is a call site's layer and function name.
type site struct{ layer, name string }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	op     int32
	spans  []span
	stack  []int
	sites  []site
	siteOf map[site]uint16
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1, siteOf: map[site]uint16{}} }

// begin opens a span and returns the handle end closes. Spans nest:
// the innermost open span is the parent.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = int32(t.stack[n-1])
	}
	st := site{layer, name}
	id, ok := t.siteOf[st]
	if !ok {
		id = uint16(len(t.sites))
		t.sites = append(t.sites, st)
		t.siteOf[st] = id
	}
	t.spans = append(t.spans, span{site: id, op: t.op, parent: parent, start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// setOp tags the spans that follow with op id (-1: none).
func (t *tracer) setOp(id int) {
	if t != nil {
		t.op = int32(id)
	}
}

// selfByLayer sums each layer's self time: a span's duration minus
// the part of it its child spans cover.
func (t *tracer) selfByLayer() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[t.sites[s.site].layer] += self[i]
	}
	return out
}

// meanUs is the mean duration in microseconds of the spans named
// name, or 0 when there are none.
func (t *tracer) meanUs(name string) float64 {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if t.sites[s.site].name == name {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// write stores the spans as tab-separated lines: index, op, parent,
// layer, name, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\top\tparent\tlayer\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		st := t.sites[s.site]
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, s.op, s.parent, st.layer, st.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
