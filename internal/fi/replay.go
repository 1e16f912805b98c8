// Golden-trace replay: the trace-driven injector query path.
//
// All four models decide injection from exactly the tuple cpu passes to
// Inject on an FI-eligible ALU cycle — (op, result, previous EX latch,
// flag, previous flag latch) — and from their trial RNG. A fault-free
// execution recorded as a stream of those tuples (the Events of
// internal/cpu's Trace, one per query) can therefore stand in for full
// simulation: ScanTrace drives a trial's injector over the recorded
// stream, consuming the RNG exactly as a full run would, until the
// first query that actually flips an endpoint bit. Below that query the
// trial is bit-for-bit the golden run; from it, full simulation
// resumes. The production path forks from a golden walker paused at
// that query (cpu's CPU.ForkFrom forces the recorded corrupted capture,
// then binds the trial injector); the test oracles instead restore a
// checkpoint with a NewForkInjector that bridges the already-consumed
// prefix.
package fi

import (
	"repro/internal/cpu"
	"repro/internal/isa"
)

// Fork describes the first injection ScanTrace found: the query index at
// which the injector flipped at least one endpoint bit, and the
// corrupted capture it returned there.
type Fork struct {
	Query   int
	Out     uint32
	OutFlag bool
	Flipped int
}

// ScanTrace drives the injector over the recorded golden query stream in
// order and returns the first query at which it injects. The injector's
// RNG advances exactly as a full execution would through that query; ok
// is false when the whole stream stays fault-free (the trial is the
// golden run).
func ScanTrace(inj Injector, qs []cpu.TraceEvent) (fork Fork, ok bool) {
	for i := range qs {
		q := &qs[i]
		out, outFlag, flipped := inj.Inject(q.Op, q.Result, q.Prev, q.Flag, q.PrevFlag)
		if flipped > 0 {
			return Fork{Query: i, Out: out, OutFlag: outFlag, Flipped: flipped}, true
		}
	}
	return Fork{}, false
}

// NewForkInjector wraps a trial injector for execution resumed from a
// checkpoint taken at query index next (queries are counted across the
// whole run, in the order the core issues them). Queries before the
// fork pass through unchanged — they are the golden prefix and their
// randomness was already consumed by ScanTrace — the fork query returns
// the recorded corrupted capture, and every later query delegates to
// inner, whose RNG stream is positioned exactly where a full execution
// would have it. It is the oracles' bridge, kept here because the fi
// and mc tests share it; production trials fork with CPU.ForkFrom,
// which spends no wrapper call per query.
func NewForkInjector(inner Injector, next int, fork Fork) Injector {
	return &forkInjector{inner: inner, next: next, fork: fork}
}

type forkInjector struct {
	inner Injector
	next  int
	fork  Fork
}

func (f *forkInjector) Inject(op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	i := f.next
	f.next++
	switch {
	case i < f.fork.Query:
		return result, flag, 0
	case i == f.fork.Query:
		return f.fork.Out, f.fork.OutFlag, f.fork.Flipped
	}
	return f.inner.Inject(op, result, prev, flag, prevFlag)
}
