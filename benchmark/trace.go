package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary the driver calls
// into. Spans of one repetition or job share a trace ID; Parent is the
// span that caused this one (0 for a root). Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	tr *tracer
	s  span
}

// start opens a span. On a nil tracer it returns an inert span whose ID
// is 0, so children of it are roots.
func (t *tracer) start(name string, trace, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, s: span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Trace: trace,
		Start: time.Since(t.t0).Nanoseconds(),
	}}
}

func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.tr == nil {
		return
	}
	o.s.End = time.Since(o.tr.t0).Nanoseconds()
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// event records an instant (a zero-length span), such as the first
// progress callback of a grid run.
func (t *tracer) event(name string, trace, parent int64) { t.start(name, trace, parent).end() }

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover (overlapping
// children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// spanSummary aggregates the spans of one name: how many, their median
// duration, and their summed total and self time.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50ms   float64 `json:"p50_ms"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	var names []string
	for _, s := range spans {
		sum, ok := byName[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalMs += ms(s.dur())
		sum.SelfMs += ms(self[s.ID])
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		sum := byName[n]
		sum.P50ms = median(durs[n])
		out = append(out, *sum)
	}
	return out
}
