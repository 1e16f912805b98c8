package fi

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/stats"
)

// scriptInjector flips a fixed mask at one scheduled call index and
// counts every call it receives.
type scriptInjector struct {
	flipAt int
	mask   uint32
	calls  int
}

func (s *scriptInjector) Inject(op isa.Op, r, prev uint32, f, pf bool) (uint32, bool, int) {
	i := s.calls
	s.calls++
	if i == s.flipAt {
		return r ^ s.mask, f, 2
	}
	return r, f, 0
}

func queries(n int) []cpu.TraceEvent {
	qs := make([]cpu.TraceEvent, n)
	for i := range qs {
		qs[i] = cpu.TraceEvent{Op: isa.OpAdd, Result: uint32(i), Prev: uint32(i) - 1}
	}
	return qs
}

func TestScanTraceFindsFirstFlip(t *testing.T) {
	inj := &scriptInjector{flipAt: 5, mask: 0b11}
	fork, ok := ScanTrace(inj, queries(10))
	if !ok {
		t.Fatalf("scan missed the scheduled flip")
	}
	if fork.Query != 5 || fork.Out != 5^0b11 || fork.Flipped != 2 {
		t.Errorf("fork %+v, want query 5, out %#x, 2 bits", fork, 5^0b11)
	}
	// The scan stops at the flip: queries after it are not consumed.
	if inj.calls != 6 {
		t.Errorf("scan consumed %d queries, want 6 (stop at the flip)", inj.calls)
	}
}

func TestScanTraceCleanStream(t *testing.T) {
	inj := &scriptInjector{flipAt: 99}
	if _, ok := ScanTrace(inj, queries(10)); ok {
		t.Fatalf("scan reported a flip on a clean stream")
	}
	if inj.calls != 10 {
		t.Errorf("scan consumed %d queries, want all 10", inj.calls)
	}
}

// TestForkInjectorBridgesPrefix checks the three regimes of the fork
// injector: golden passthrough before the fork (no inner calls, so no
// RNG consumption), the recorded capture at the fork, and delegation
// after it.
func TestForkInjectorBridgesPrefix(t *testing.T) {
	inner := &scriptInjector{flipAt: 99, mask: 0}
	fork := Fork{Query: 7, Out: 0xDEAD, OutFlag: true, Flipped: 3}
	// Resume from a checkpoint at query index 4.
	inj := NewForkInjector(inner, 4, fork)
	for i := 4; i < 7; i++ {
		out, f, n := inj.Inject(isa.OpAdd, uint32(i), 0, false, false)
		if out != uint32(i) || f || n != 0 {
			t.Fatalf("prefix query %d altered: out %#x flag %v n %d", i, out, f, n)
		}
	}
	if inner.calls != 0 {
		t.Fatalf("prefix queries leaked to the inner injector (%d calls)", inner.calls)
	}
	out, f, n := inj.Inject(isa.OpAdd, 7, 0, false, false)
	if out != 0xDEAD || !f || n != 3 {
		t.Fatalf("fork query: out %#x flag %v n %d, want recorded capture", out, f, n)
	}
	if inner.calls != 0 {
		t.Fatalf("fork query leaked to the inner injector")
	}
	out, _, _ = inj.Inject(isa.OpAdd, 8, 0, false, false)
	if inner.calls != 1 || out != 8 {
		t.Fatalf("post-fork query not delegated (calls %d, out %#x)", inner.calls, out)
	}
}

// TestScanPlusForkPreservesRNGStream is the stream-equivalence property
// behind bit-identical replay, on a real model: running ScanTrace and
// then finishing the stream through a fork injector must leave a model
// injector's RNG exactly where one uninterrupted pass leaves it.
func TestScanPlusForkPreservesRNGStream(t *testing.T) {
	model := &ModelA{Prob: 0.02}
	qs := queries(400)

	// Reference: one uninterrupted pass.
	refRNG := stats.NewTrial(9)
	ref := model.NewTrial(refRNG)
	var refOuts []uint32
	for _, q := range qs {
		out, _, _ := ref.Inject(q.Op, q.Result, q.Prev, q.Flag, q.PrevFlag)
		refOuts = append(refOuts, out)
	}

	// Replay: scan to the first flip, then bridge with a fork injector
	// from an arbitrary earlier resume index, as a forked trial does.
	rng := stats.NewTrial(9)
	inj := model.NewTrial(rng)
	fork, ok := ScanTrace(inj, qs)
	if !ok {
		t.Fatalf("model A at p=0.02 never injected in 400 queries")
	}
	resume := fork.Query - fork.Query/2
	bridged := NewForkInjector(inj, resume, fork)
	for i := resume; i < len(qs); i++ {
		q := qs[i]
		out, _, _ := bridged.Inject(q.Op, q.Result, q.Prev, q.Flag, q.PrevFlag)
		if out != refOuts[i] {
			t.Fatalf("query %d: bridged out %#x, uninterrupted out %#x (fork at %d, resume %d)",
				i, out, refOuts[i], fork.Query, resume)
		}
	}
	// Both streams must now be in the same state.
	if a, b := refRNG.Uint64(), rng.Uint64(); a != b {
		t.Errorf("RNG streams diverged after the pass: %#x vs %#x", a, b)
	}
}
