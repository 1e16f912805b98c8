package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a: counted once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 130}, // clipped to the parent
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 20},
		{Name: "e", ID: 6, Parent: 1, Start: 50, End: 50}, // an event covers nothing
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5, 6: 0} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarizeSpans(spans)
	if len(sum) != 6 || sum[0].Name != "a" || sum[5].Name != "op" || sum[5].SelfMs != ms(40) {
		t.Errorf("summary %+v", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start("x", 1, 0)
	tr.event("y", 1, sp.id())
	sp.end()
	if sp.id() != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	parent := tr.start("p", 7, 0)
	tr.start("c", 7, parent.id()).end()
	parent.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "p" || got[1].Parent != got[0].ID || got[1].Trace != 7 {
		t.Errorf("spans %+v", got)
	}
}
