package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one (-1 for a root); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int // op identifiers handed out to absorbed tracers so far
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	id := len(t.spans) - 1
	// The clock is read last so the span does not time its own bookkeeping.
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// absorb appends part's spans to t, which may be nil. Each part of the traced
// pass records into a tracer of its own, numbering its ops from 0, and works
// its metrics out of that; the run's tracer only collects the parts for
// -trace-out, so times are shifted to its clock and ops and parents
// renumbered to stay unique.
func (t *tracer) absorb(part *tracer) {
	if t == nil {
		return
	}
	spans := part.snapshot()
	shift := int64(part.t0.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	base, ops := len(t.spans), 0
	for _, s := range spans {
		ops = max(ops, s.Op+1)
		s.Start, s.End, s.Op = s.Start+shift, s.End+shift, s.Op+t.ops
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.ops += ops
}

// write dumps the spans as JSON, each with its self time.
func (t *tracer) write(path string) error {
	type record struct {
		span
		Self int64 `json:"self"`
	}
	spans := t.snapshot()
	records := make([]record, len(spans))
	for i, self := range selfTimes(spans) {
		records[i] = record{spans[i], self}
	}
	data, err := json.Marshal(records)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// parts) are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - cover(children[i], s.Start, s.End)
	}
	return self
}

// cover is the length of the union of the intervals, clipped to [lo, hi].
func cover(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, c := range iv {
		start, end := max(c[0], at), min(c[1], hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// durationsByOp sums, per op, the durations of the spans called name.
func durationsByOp(spans []span, name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += time.Duration(s.End - s.Start)
		}
	}
	return out
}
