package mc

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/isa"
)

// lazyBenches are the benchmarks the lazy-table tests cover; their
// golden traces touch from 3 (median) to 10 (kmeans) DTA keys.
func lazyBenches() []*bench.Benchmark {
	return []*bench.Benchmark{bench.Checksum(), bench.Median(), bench.KMeans()}
}

// TestColdFaultFreeGridCharacterizesTraceKeysOnly: a cold model-C grid
// at frequencies no query can fault at builds its hazards over the
// golden trace and forks no trial, so it must characterize exactly the
// distinct keys of that trace's ops — fewer than every ALU key.
func TestColdFaultFreeGridCharacterizesTraceKeysOnly(t *testing.T) {
	for _, b := range lazyBenches() {
		sys := coldSystem()
		g, err := sys.Golden(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[dta.Key]bool{}
		for _, q := range g.Trace.Events {
			keys[dta.KeyFor(q.Op, b.Profile)] = true
		}
		all := map[dta.Key]bool{}
		for _, op := range isa.AllOps() {
			if isa.IsALU(op) {
				all[dta.KeyFor(op, b.Profile)] = true
			}
		}
		if len(keys) >= len(all) {
			t.Fatalf("%s: trace touches all %d keys — nothing to pin", b.Name, len(all))
		}

		cells, err := Grid{
			Spec: Spec{System: sys, Bench: b, Model: core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, Trials: 8, Seed: 3},
			Axes: Axes{Freqs: []float64{450, 500}},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Point.CorrectPct != 100 || c.Point.FIRate != 0 {
				t.Fatalf("%s @ %v MHz faulted (%+v) — grid is not fault-free", b.Name, c.Model.FreqMHz, c.Point)
			}
		}
		if n := sys.Char.ComputedCount(); n != int64(len(keys)) {
			t.Errorf("%s: cold grid characterized %d keys, want the trace's %d (of %d)", b.Name, n, len(keys), len(all))
		}
	}
}

// TestLazyTablesMatchPrewarmed: filling tables on demand must not move
// a single Point. A grid over faulting frequencies runs on a fresh
// System and on one whose every key was prewarmed, for both samplings
// and both semantics.
func TestLazyTablesMatchPrewarmed(t *testing.T) {
	benches := lazyBenches()
	lazy, warm := coldSystem(), coldSystem()
	for _, b := range benches {
		if err := warm.Char.Prewarm(b.Profile, 0.7); err != nil {
			t.Fatal(err)
		}
	}
	prewarmed := warm.Char.ComputedCount()
	for _, sem := range []fi.Semantics{fi.FlipBit, fi.StaleCapture} {
		for _, sampling := range []fi.Sampling{fi.Independent, fi.Joint} {
			grid := func(sys *core.System) []CellResult {
				cells, err := Grid{
					Spec: Spec{
						System: sys,
						Bench:  benches[0],
						Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sem: sem, Sampling: sampling},
						Trials: 12,
						Seed:   11,
					},
					Axes: Axes{Benches: benches, Freqs: []float64{700, 760, 820}},
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				return cells
			}
			got, want := grid(lazy), grid(warm)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%v: lazy tables moved the points:\n%+v\n%+v", sem, sampling, got, want)
			}
			faulted := false
			for _, c := range got {
				faulted = faulted || c.Point.FIRate > 0
			}
			if !faulted {
				t.Fatalf("%v/%v: no cell faulted — grid cannot pin the post-fork queries", sem, sampling)
			}
		}
	}
	if n := warm.Char.ComputedCount(); n != prewarmed {
		t.Errorf("prewarmed System characterized %d more keys during the grids", n-prewarmed)
	}
	if n := lazy.Char.ComputedCount(); n >= prewarmed {
		t.Errorf("lazy System characterized %d keys, prewarming takes %d", n, prewarmed)
	}
}
