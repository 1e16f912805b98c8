package mc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dta"
)

// The grid-engine differential: a single-axis (frequency) grid must be
// bit-identical to Sweep and to the point-serial oracle for a fixed
// seed (pinned on the full path against the oracle's full kernel).
func TestGridSingleAxisMatchesSweepAndSerial(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
		Mode:   ModeFull,
		Trials: 24,
		Seed:   7,
	}
	freqs := []float64{650, 660, 670, 680}

	cells, err := Grid{Spec: spec, Axes: Axes{Freqs: freqs}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(freqs) {
		t.Fatalf("grid cells = %d, want %d", len(cells), len(freqs))
	}
	gridPts := make([]Point, len(cells))
	for i, c := range cells {
		if c.Bench != "median" || c.Model.FreqMHz != freqs[i] {
			t.Errorf("cell %d mislabelled: %s @ %v MHz", i, c.Bench, c.Model.FreqMHz)
		}
		gridPts[i] = c.Point
	}

	sweepPts, err := Sweep(spec, freqs)
	if err != nil {
		t.Fatal(err)
	}
	serialPts, err := refSweep(spec, refFull, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gridPts, sweepPts) {
		t.Errorf("grid != sweep:\n%+v\n%+v", gridPts, sweepPts)
	}
	if !reflect.DeepEqual(gridPts, serialPts) {
		t.Errorf("grid != serial reference:\n%+v\n%+v", gridPts, serialPts)
	}
}

// Every cell of a multi-axis grid must be bit-identical to evaluating
// the same coordinate alone with Run — the grid is pure scheduling, not
// a statistical change.
func TestGridMultiAxisCellsMatchIndividualRuns(t *testing.T) {
	base := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B"},
		Trials: 12,
		Seed:   3,
	}
	g := Grid{
		Spec: base,
		Axes: Axes{
			Benches: []*bench.Benchmark{bench.Median(), bench.MatMult8()},
			Kinds:   []string{"B", "B+"},
			Sigmas:  []float64{0.010},
			Vdds:    []float64{0.7},
			Freqs:   []float64{700, 720},
		},
	}
	cells, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*1*1*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// Enumeration order: bench-major, frequency innermost.
	if cells[0].Bench != "median" || cells[4].Bench != "mat_mult_8bit" {
		t.Errorf("bench-major order violated: %s / %s", cells[0].Bench, cells[4].Bench)
	}
	if cells[0].Model.Kind != "B" || cells[2].Model.Kind != "B+" {
		t.Errorf("kind order violated: %s / %s", cells[0].Model.Kind, cells[2].Model.Kind)
	}
	if cells[0].Model.FreqMHz != 700 || cells[1].Model.FreqMHz != 720 {
		t.Errorf("freq innermost violated: %v / %v", cells[0].Model.FreqMHz, cells[1].Model.FreqMHz)
	}
	for _, c := range cells {
		spec := base
		b, err := bench.ByName(c.Bench)
		if err != nil {
			t.Fatal(err)
		}
		spec.Bench = b
		spec.Model = c.Model
		pt, err := Run(spec, c.Model.FreqMHz)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt, c.Point) {
			t.Errorf("%s %s @ %v MHz: grid cell differs from individual Run:\n%+v\n%+v",
				c.Bench, c.Model.Kind, c.Model.FreqMHz, c.Point, pt)
		}
	}
}

// A grid with no axes at all is a single cell at the base spec's
// operating point.
func TestGridNoAxesIsSingleCell(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B", Vdd: 0.7, FreqMHz: 710},
		Trials: 8,
		Seed:   1,
	}
	cells, err := Grid{Spec: spec}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Model.FreqMHz != 710 {
		t.Fatalf("cells = %+v", cells)
	}
	pt, err := Run(spec, 710)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells[0].Point, pt) {
		t.Errorf("no-axes grid differs from Run")
	}
}

// An invalid operating point partway through the enumeration yields the
// valid prefix plus the error, matching the sweep contract.
func TestGridInvalidCellPrefix(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B", Vdd: 0.7},
		Trials: 6,
		Seed:   1,
	}
	limit := system().NonALUSafeMHz(0.7)
	cells, err := Grid{Spec: spec, Axes: Axes{Freqs: []float64{700, limit + 100}}}.Run()
	if err == nil {
		t.Fatal("expected an error past the non-ALU safe limit")
	}
	if len(cells) != 1 || cells[0].Model.FreqMHz != 700 {
		t.Fatalf("valid prefix not returned: %+v", cells)
	}
}

// Completed cells checkpoint to the store; a resumed grid loads them
// bit-identically without scheduling any trials.
func TestGridResumeFromStore(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
		Trials: 16,
		Seed:   9,
	}
	axes := Axes{Freqs: []float64{655, 665, 675}}

	first, err := Grid{Spec: spec, Axes: axes, Store: st}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range first {
		if c.Cached {
			t.Errorf("first run reported a cached cell at %v MHz", c.Model.FreqMHz)
		}
	}

	trials := 0
	spec2 := spec
	spec2.Progress = func(p Progress) { trials = p.DoneTrials }
	second, err := Grid{Spec: spec2, Axes: axes, Store: st, Resume: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if trials != 0 {
		t.Errorf("resumed grid ran %d trials, want 0", trials)
	}
	for i, c := range second {
		if !c.Cached {
			t.Errorf("cell %v MHz not served from the store", c.Model.FreqMHz)
		}
		if !reflect.DeepEqual(c.Point, first[i].Point) {
			t.Errorf("resumed cell %v MHz drifted:\n%+v\n%+v",
				c.Model.FreqMHz, c.Point, first[i].Point)
		}
	}

	// A different seed must not hit the same cells.
	spec3 := spec
	spec3.Seed = 10
	third, err := Grid{Spec: spec3, Axes: axes, Store: st, Resume: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range third {
		if c.Cached {
			t.Error("cell with a different seed was served from the store")
		}
	}
}

// Flipping any byte of a checkpointed cell blob must make the cell a
// miss, never a hit decoding to another Point, and a resumed grid over
// the corrupt blob recomputes the cell bit-identically.
func TestCorruptCellBlobNeverServed(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Spec: Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010, FreqMHz: 665},
			Trials: 8,
			Seed:   3,
		},
		Store: st,
	}
	first, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(st.Dir(), artifact.KindGridCell+"-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cell blobs %v, %v", files, err)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if pt, ok := CellCache(st).Load(plan[0].Key, decodeCell); !ok || !reflect.DeepEqual(pt, first[0].Point) {
		t.Fatal("intact blob does not load the computed Point")
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x01
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if pt, ok := CellCache(st).Load(plan[0].Key, decodeCell); ok {
			t.Fatalf("byte %d of %d flipped: hit (same Point: %v)", i, len(good), reflect.DeepEqual(pt, first[0].Point))
		}
	}
	g.Resume = true
	again, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Cached || !reflect.DeepEqual(again[0].Point, first[0].Point) {
		t.Fatalf("resume over a corrupt blob: cached %v, point drifted %v", again[0].Cached, !reflect.DeepEqual(again[0].Point, first[0].Point))
	}
}

// End-to-end warm start: a second process (modelled by a fresh System)
// over a populated cache directory must skip DTA characterization and
// golden-trace recording entirely, load violation grids instead of raw
// characterizations, and produce bit-identical points.
func TestWarmStartSkipsCharacterizationAndRecording(t *testing.T) {
	dir := t.TempDir()
	newSys := func() *core.System {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 256
		s := core.New(cfg)
		st, err := artifact.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachStore(st)
		return s
	}
	freqs := []float64{700, 760}
	run := func(sys *core.System) []Point {
		pts, err := Sweep(Spec{
			System: sys,
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Trials: 8,
			Seed:   2,
		}, freqs)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	cold := newSys()
	coldPts := run(cold)
	if cold.Char.ComputedCount() == 0 {
		t.Fatal("cold run did not characterize — fixture broken")
	}
	if cold.GoldenRecordedCount() == 0 {
		t.Fatal("cold run did not record a golden trace — fixture broken")
	}
	if cold.HazardBuiltCount() == 0 {
		t.Fatal("cold run did not build a hazard table — fixture broken")
	}

	warm := newSys()
	warmPts := run(warm)
	if n := warm.Char.ComputedCount(); n != 0 {
		t.Errorf("warm run recharacterized %d keys, want 0", n)
	}
	if n := warm.GoldenRecordedCount(); n != 0 {
		t.Errorf("warm run re-recorded %d golden traces, want 0", n)
	}
	if n := warm.HazardBuiltCount(); n != 0 {
		t.Errorf("warm run rebuilt %d hazard tables, want 0", n)
	}
	if n := warm.Char.LoadedCount(); n != 0 {
		t.Errorf("warm run read %d raw characterizations, want 0: model C reads only grids", n)
	}
	if _, rest, _ := strings.Cut(warm.CacheSummary(), "; "); strings.Contains(rest, " 0 loaded") {
		t.Errorf("warm run did not load every other kind from the store: %s", rest)
	}
	if !reflect.DeepEqual(coldPts, warmPts) {
		t.Errorf("warm-start points drifted:\n%+v\n%+v", coldPts, warmPts)
	}
}

// Adaptive allocation must checkpoint/resume identically too (the cell
// key includes the full adaptive configuration).
func TestGridResumeAdaptive(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		System:    system(),
		Bench:     bench.Median(),
		Model:     core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
		TrialsMin: 6,
		TrialsMax: 24,
		Seed:      4,
	}
	axes := Axes{Freqs: []float64{660, 670}}
	first, err := Grid{Spec: spec, Axes: axes, Store: st}.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := Grid{Spec: spec, Axes: axes, Store: st, Resume: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached || !reflect.DeepEqual(second[i].Point, first[i].Point) {
			t.Errorf("adaptive cell %d did not resume bit-identically", i)
		}
	}
}

// The cell key is the address every checkpointed grid cell is stored
// under, so its spelling is part of the store's format: a refactor that
// reorders, renames or reformats any field silently cold-misses every
// warm store. This pins everything after the program digest for one
// fixed spec and cell.
func TestCellKeySpelling(t *testing.T) {
	s := Spec{Trials: 50, TrialsMin: 8, TrialsMax: 64, Seed: 7}.withDefaults()
	c := Cell{
		Bench: &bench.Benchmark{Name: "median"},
		Model: core.ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: 0.01,
			Profile: dta.Profile{circuit.UnitMul: "w8"}},
	}
	const want = "sys=FP|bench=median|prog=DIG" +
		"|inputSeed=42" +
		"|model={Kind:C Vdd:0.7 FreqMHz:800 Sigma:0.01 ProbA:0 Profile:map[mul:w8] Sem:flip-bit Sampling:independent}" +
		"|trials=50|tmin=8|tmax=64|z=1.959963984540054|eps=0.05|seed=7|wf=4" +
		"|path=firstfault|rng=x1|q=v1"
	if got := cellKey("FP", "DIG", s, c); got != want {
		t.Errorf("cell key spelling changed:\n got %s\nwant %s", got, want)
	}
}

// A kind-A cell that names no flip probability runs at
// core.DefaultProbA: the grid fills it in before keying, so the Point is
// bit-identical to an explicit DefaultProbA cell, faults are injected,
// and the key spells the probability (no ProbA:0 cell is ever stored).
func TestModelADefaultProbA(t *testing.T) {
	implicit := Spec{System: system(), Bench: bench.Median(), Trials: 24, Seed: 5}
	explicit := implicit
	explicit.Model.ProbA = core.DefaultProbA
	axes := Axes{Kinds: []string{"A"}, Freqs: []float64{700}}
	got, err := Grid{Spec: implicit, Axes: axes}.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Grid{Spec: explicit, Axes: axes}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-ProbA cell differs from DefaultProbA cell:\n%+v\n%+v", got, want)
	}
	if got[0].Model.ProbA != core.DefaultProbA || got[0].Point.FIRate == 0 {
		t.Errorf("model A ran at ProbA %v with FI rate %v, want %v and faults",
			got[0].Model.ProbA, got[0].Point.FIRate, core.DefaultProbA)
	}
	c := Grid{Spec: implicit, Axes: axes}.Cells()[0]
	if key := cellKey("FP", "DIG", implicit.withDefaults(), c); !strings.Contains(key, "ProbA:1e-06") {
		t.Errorf("cell key does not spell the default probability: %s", key)
	}
}
