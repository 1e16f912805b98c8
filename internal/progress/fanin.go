// Fan-in of progress from concurrent sources. The cluster coordinator
// drives many workers at once, each reporting progress for its own
// lease; a Fanin folds those per-source streams into one aggregate
// stream the rest of the stack (the server's Broadcaster, SSE clients)
// consumes exactly as if a single local engine produced it.

package progress

import "sync"

// Counts is one source's progress contribution: paired done/total
// counters at two granularities (work items and points). It is a plain
// value so the package stays a stdlib-only leaf; callers map their own
// progress types (e.g. mc.Progress) onto it.
type Counts struct {
	Done, Total             int
	DonePoints, TotalPoints int
}

// Add returns the field-wise sum.
func (a Counts) Add(b Counts) Counts {
	return Counts{
		Done:        a.Done + b.Done,
		Total:       a.Total + b.Total,
		DonePoints:  a.DonePoints + b.DonePoints,
		TotalPoints: a.TotalPoints + b.TotalPoints,
	}
}

// Fanin aggregates progress from concurrent, dynamically appearing and
// disappearing sources into a single stream: a settled base (work known
// finished, plus any up-front totals) and one live snapshot per open
// source. Every mutation emits the new aggregate — base plus the sum of
// live snapshots — through the callback, under the Fanin's lock, so
// callbacks are serialized and in mutation order (the same contract the
// mc engine gives its Progress observers). The callback must therefore
// be cheap and must never call back into the Fanin.
type Fanin struct {
	mu   sync.Mutex
	base Counts
	live map[string]Counts
	emit func(Counts)
}

// NewFanin returns a Fanin emitting aggregates through emit (nil for a
// purely-polled aggregator).
func NewFanin(emit func(Counts)) *Fanin {
	return &Fanin{live: make(map[string]Counts), emit: emit}
}

// Fold adds c permanently into the settled base (up-front totals,
// cached cells, partial results salvaged from a failed source).
func (f *Fanin) Fold(c Counts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base = f.base.Add(c)
	f.emitLocked()
}

// Update replaces the live snapshot of one source. Snapshots are
// absolute per-source states, not deltas.
func (f *Fanin) Update(src string, c Counts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live[src] = c
	f.emitLocked()
}

// Close retires a source, folding final into the base in the same
// mutation — the aggregate never transiently drops while a finished
// source's contribution moves from live to settled.
func (f *Fanin) Close(src string, final Counts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.live, src)
	f.base = f.base.Add(final)
	f.emitLocked()
}

func (f *Fanin) aggregateLocked() Counts {
	agg := f.base
	for _, c := range f.live {
		agg = agg.Add(c)
	}
	return agg
}

func (f *Fanin) emitLocked() {
	if f.emit != nil {
		f.emit(f.aggregateLocked())
	}
}
