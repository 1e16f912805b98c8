package mc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/leaktest"
)

// TestRunCellsEmitsEachCellOnce pins the closed-cell stream of RunCells
// on a resumed, store-backed grid with a selection that mixes
// checkpointed and computed cells out of enumeration order: every
// selected cell is emitted exactly once, under the key PlanCells spells
// for it, with the Point and Cached flag RunCells returns, and a
// computed cell is already checkpointed when it is emitted.
func TestRunCellsEmitsEachCellOnce(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := planGrid()
	full, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	g.Store = st
	if _, err := g.RunCells(context.Background(), []int{1, 4}, nil); err != nil {
		t.Fatal(err)
	}
	g.Resume = true

	cells := CellCache(st)
	indices := []int{5, 1, 3, 0, 4}
	var mu sync.Mutex
	emitted := make(map[int][]CellResult)
	got, err := g.RunCells(context.Background(), indices, func(pos int, c CellResult) {
		stored, ok := cells.Load(c.Key, decodeCell)
		if !c.Cached && (!ok || stored != c.Point) {
			t.Errorf("cell %d emitted before its checkpoint was written", indices[pos])
		}
		mu.Lock()
		emitted[pos] = append(emitted[pos], c)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(indices) {
		t.Fatalf("RunCells returned %d cells, want %d", len(got), len(indices))
	}
	for pos, idx := range indices {
		es := emitted[pos]
		if len(es) != 1 {
			t.Errorf("cell %d emitted %d times, want once", idx, len(es))
			continue
		}
		if es[0].Key != plan[idx].Key {
			t.Errorf("cell %d emitted under key %q, planned %q", idx, es[0].Key, plan[idx].Key)
		}
		if !reflect.DeepEqual(es[0], got[pos]) {
			t.Errorf("cell %d emitted %+v, returned %+v", idx, es[0], got[pos])
		}
		if wantCached := idx == 1 || idx == 4; got[pos].Cached != wantCached {
			t.Errorf("cell %d Cached = %v, want %v", idx, got[pos].Cached, wantCached)
		}
		if got[pos].Point != full[idx].Point {
			t.Errorf("cell %d Point differs from the full grid's:\n%+v\n%+v", idx, got[pos].Point, full[idx].Point)
		}
	}
	if len(emitted) != len(indices) {
		t.Errorf("emitted %d positions, want %d", len(emitted), len(indices))
	}
}

// TestRunCellsCancelEmitsNothingLate cancels a store-backed RunCells
// from its first progress snapshot: the run reports the cancellation,
// no cell is emitted once RunCells has returned, and every checkpoint
// the run wrote belongs to a cell it emitted.
func TestRunCellsCancelEmitsNothingLate(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Spec: Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Trials: 400,
			Seed:   1,
		},
		Axes:  Axes{Freqs: []float64{690, 700, 750, 800}},
		Store: st,
	}
	plan, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the shared system so the measured run starts no cache builds.
	if _, err := Run(Spec{System: g.Spec.System, Bench: g.Spec.Bench, Model: g.Spec.Model, Trials: 1}, 700); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	g.Spec.Progress = func(Progress) { once.Do(cancel) }
	var returned atomic.Bool
	var mu sync.Mutex
	emitted := make(map[string]bool)
	_, err = g.RunCells(ctx, []int{3, 0, 2, 1}, func(pos int, c CellResult) {
		if returned.Load() {
			t.Errorf("cell at position %d emitted after RunCells returned", pos)
		}
		mu.Lock()
		emitted[c.Key] = true
		mu.Unlock()
	})
	returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunCells: err=%v, want context.Canceled", err)
	}
	// Once every goroutine of the run has exited, nothing can emit.
	leaktest.Settles(t, base)

	cells := CellCache(st)
	for _, pc := range plan {
		if _, ok := cells.Load(pc.Key, decodeCell); ok && !emitted[pc.Key] {
			t.Errorf("cell %d checkpointed but never emitted", pc.Index)
		}
	}
}

// TestCellClosedAfterAbortIsNeitherSavedNorEmitted aborts a one-cell
// grid from its first completed trial. The cell is fault-free, so its
// one planning pass completes every remaining trial after the abort and
// closes the cell: the grid is whole and returns the uncancelled Point,
// but the cell is neither checkpointed nor emitted. The abort is set
// directly under the engine lock (Progress runs under it), so it lands
// before the second trial completes on every schedule.
func TestCellClosedAfterAbortIsNeitherSavedNorEmitted(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7},
		Trials: 8,
		Seed:   3,
	}.withDefaults()
	axes := Axes{Freqs: []float64{650}}
	want, err := Grid{Spec: spec, Axes: axes}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pt := want[0].Point; pt.FIRate != 0 || pt.CorrectPct != 100 {
		t.Fatalf("cell is not fault-free (%+v): it would not close inside its planning pass", pt)
	}

	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var e *engine
	spec.Progress = func(Progress) {
		if e.err == nil {
			e.err = context.Canceled
		}
	}
	g := Grid{Spec: spec, Axes: axes, Store: st}
	e = newEngine(spec, st, g.Cells())
	emitted := 0
	e.emit = func(int, CellResult) { emitted++ }
	e.resolveAll(context.Background(), newResolver(spec, g))
	got, err := e.run(context.Background())
	if err != nil {
		t.Fatalf("grid whose only cell closed after the abort: err=%v, want it whole", err)
	}
	if len(got) != 1 || got[0].Point != want[0].Point {
		t.Errorf("whole grid after abort: got %+v, want %+v", got, want)
	}
	if emitted != 0 {
		t.Errorf("a cell that closed after the abort was emitted %d times", emitted)
	}
	if puts := st.Stats().Puts; puts != 0 {
		t.Errorf("a cell that closed after the abort was checkpointed (%d puts)", puts)
	}
}
