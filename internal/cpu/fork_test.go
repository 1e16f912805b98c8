package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// flipAt builds an injector that passes golden values through until its
// n-th query (0-based), flips bit 0 of that result, and passes through
// afterwards.
func flipAt(n int) Injector {
	i := 0
	return injFunc(func(_ isa.Op, r, _ uint32, f, _ bool) (uint32, bool, int) {
		defer func() { i++ }()
		if i == n {
			return r ^ 1, f, 1
		}
		return r, f, 0
	})
}

// TestForkMatchesRestore is the batched-path fidelity guarantee: a core
// forked from a shared walker paused at query k, with a fault injected
// at that query, must be indistinguishable from a core independently
// Restored at the nearest checkpoint and run with the same injection —
// architectural state, every counter, fault accounting, and memory.
func TestForkMatchesRestore(t *testing.T) {
	_, tr, p := goldenTrace(t, 64)
	if len(tr.Events) < 8 {
		t.Fatalf("kernel too small: %d events", len(tr.Events))
	}

	// One walker walks forward over all fork points, as the batched
	// trial path does; start it from the first checkpoint.
	wm := mem.New()
	walker := New(wm, nil, DefaultConfig())
	if err := walker.Restore(p, tr, &tr.Checkpoints[0]); err != nil {
		t.Fatal(err)
	}
	walker.SetWatchdog(1_000_000)

	tm := mem.New()
	for k := 0; k < len(tr.Events); k++ {
		// Reference: independent restore at the nearest checkpoint, run
		// with a fault at relative query k - EventIndex.
		cp := tr.CheckpointBefore(k)
		rm := mem.New()
		ref := New(rm, flipAt(k-cp.EventIndex), DefaultConfig())
		if err := ref.Restore(p, tr, cp); err != nil {
			t.Fatal(err)
		}
		ref.SetWatchdog(1_000_000)
		refSt := ref.Run()

		// Batched: advance the shared walker, clone, fork, run.
		if st := walker.RunToQuery(uint64(k)); st != StatusRunning {
			t.Fatalf("walker ended %v before query %d", st, k)
		}
		if walker.KernelALUCycles != uint64(k) || !walker.willQuery() {
			t.Fatalf("walker paused at %d queries (willQuery=%v), want %d",
				walker.KernelALUCycles, walker.willQuery(), k)
		}
		tm.CloneFrom(wm)
		ev := tr.Events[k]
		fc := &CPU{}
		fc.ForkFrom(walker, tm, NullInjector{}, ev.Result^1, ev.Flag, 1)
		if st := fc.Run(); st != refSt {
			t.Fatalf("query %d: fork ended %v, restore ended %v", k, st, refSt)
		}

		if fc.Regs != ref.Regs || fc.PC != ref.PC || fc.Flag != ref.Flag {
			t.Errorf("query %d: architectural state diverged", k)
		}
		if fc.Cycles != ref.Cycles || fc.KernelCycles != ref.KernelCycles ||
			fc.KernelALUCycles != ref.KernelALUCycles || fc.Retired != ref.Retired {
			t.Errorf("query %d: counters diverged: cycles %d/%d", k, fc.Cycles, ref.Cycles)
		}
		if fc.FIBits != ref.FIBits || fc.FIEvents != ref.FIEvents {
			t.Errorf("query %d: fault accounting diverged: bits %d/%d events %d/%d",
				k, fc.FIBits, ref.FIBits, fc.FIEvents, ref.FIEvents)
		}
		if fc.OpCounts != ref.OpCounts {
			t.Errorf("query %d: op counts diverged", k)
		}
		if tm.Loads != rm.Loads || tm.Stores != rm.Stores {
			t.Errorf("query %d: access counters diverged: loads %d/%d stores %d/%d",
				k, tm.Loads, rm.Loads, tm.Stores, rm.Stores)
		}
		got, err := tm.ReadWords(p.Symbols["buf"], 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rm.ReadWords(p.Symbols["buf"], 4)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("query %d: memory word %d = %#x, want %#x", k, j, got[j], want[j])
			}
		}
	}
}

// TestRunToQueryIdempotentAtPause pins that a walker already paused at
// query n does not advance when asked for n again (equal fork points in
// one batch), and that the paused-at query is the one the trace
// recorded.
func TestRunToQueryIdempotentAtPause(t *testing.T) {
	_, tr, p := goldenTrace(t, 64)
	wm := mem.New()
	walker := New(wm, nil, DefaultConfig())
	if err := walker.Restore(p, tr, &tr.Checkpoints[0]); err != nil {
		t.Fatal(err)
	}
	walker.SetWatchdog(1_000_000)

	k := len(tr.Events) / 2
	if st := walker.RunToQuery(uint64(k)); st != StatusRunning {
		t.Fatalf("walker ended %v", st)
	}
	cycles, pc := walker.Cycles, walker.PC
	if st := walker.RunToQuery(uint64(k)); st != StatusRunning {
		t.Fatalf("second pause ended %v", st)
	}
	if walker.Cycles != cycles || walker.PC != pc {
		t.Fatalf("repeated RunToQuery advanced the walker: cycles %d->%d", cycles, walker.Cycles)
	}

	// The instruction at the pause is the recorded query k: a fork that
	// forces the golden capture there must next query exactly the
	// recorded query k+1, whose previous-latch values are query k's.
	var next *TraceEvent
	rec := injFunc(func(op isa.Op, r, prev uint32, f, pf bool) (uint32, bool, int) {
		if next == nil {
			next = &TraceEvent{Op: op, Result: r, Prev: prev, Flag: f, PrevFlag: pf}
		}
		return r, f, 0
	})
	tm := mem.New()
	tm.CloneFrom(wm)
	ev := tr.Events[k]
	fc := &CPU{}
	fc.ForkFrom(walker, tm, rec, ev.Result, ev.Flag, 0)
	if fc.KernelALUCycles != uint64(k+1) {
		t.Fatalf("fork issued %d queries, want %d", fc.KernelALUCycles, k+1)
	}
	fc.Run()
	ev1 := tr.Events[k+1]
	want := TraceEvent{Op: ev1.Op, Result: ev1.Result, Prev: ev1.Prev, Flag: ev1.Flag, PrevFlag: ev1.PrevFlag}
	if next == nil || *next != want {
		t.Fatalf("first injector query after the fork %+v, want %+v", next, want)
	}
	if want.Prev != ev.Result || want.PrevFlag != ev.Flag {
		t.Fatalf("recorded query %d does not follow query %d", k+1, k)
	}
}
