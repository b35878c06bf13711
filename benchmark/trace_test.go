package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "a.inner", Start: 12, End: 17, Parent: 1},
	}
	want := []int64{100 - (40 + 10), 20 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.end(-1)
	if off.snapshot() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("layer.call", root, 7)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].End-spans[1].Start < int64(time.Millisecond) || spans[0].End < spans[1].End {
		t.Errorf("span times wrong: %+v", spans)
	}
	if d := durationsByOp(spans, "layer.call")[7]; d < time.Millisecond {
		t.Errorf("durationsByOp = %v", d)
	}
}

func TestAbsorbKeepsParentsAndMakesOpsUnique(t *testing.T) {
	sink := newTracer()
	for range [2]int{} { // two parts, each numbering its ops from 0
		part := newTracer()
		for op := 0; op < 2; op++ {
			root := part.begin("op", -1, op)
			part.end(part.begin("layer.call", root, op))
			part.end(root)
		}
		sink.absorb(part)
	}
	spans := sink.snapshot()
	if len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	for i, s := range spans {
		if want := i / 2; s.Op != want {
			t.Errorf("span %d has op %d, want %d", i, s.Op, want)
		}
		if s.Name == "layer.call" && (s.Parent != i-1 || spans[s.Parent].Name != "op") {
			t.Errorf("span %d: parent %d is not its op's root", i, s.Parent)
		}
		if s.Start < 0 || s.End < s.Start {
			t.Errorf("span %d: times %d-%d not on the sink's clock", i, s.Start, s.End)
		}
	}
	var none *tracer
	none.absorb(sink) // a nil sink collects nothing and must not panic
}
