package mc

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

func system() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
		sys = core.New(cfg)
	})
	return sys
}

func TestGoldenPointIsPerfect(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 5,
		Seed:   1,
	}
	pt, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FinishedPct != 100 || pt.CorrectPct != 100 {
		t.Errorf("golden point: finished %v correct %v", pt.FinishedPct, pt.CorrectPct)
	}
	if pt.FIRate != 0 || pt.OutputErr != 0 {
		t.Errorf("golden point injected: rate %v err %v", pt.FIRate, pt.OutputErr)
	}
	if pt.KernelCycles < 100_000 {
		t.Errorf("median kernel cycles %v suspiciously low", pt.KernelCycles)
	}
}

func TestModelCBelowOnsetIsClean(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.MatMult8(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0},
		Trials: 5,
		Seed:   1,
	}
	pt, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CorrectPct != 100 || pt.FIRate != 0 {
		t.Errorf("below onset: correct %v rate %v", pt.CorrectPct, pt.FIRate)
	}
}

func TestModelBDestroysEverythingAboveSTA(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.MatMult8(),
		Model:  core.ModelSpec{Kind: "B", Vdd: 0.7},
		Trials: 5,
		Seed:   1,
	}
	sta := system().STALimitMHz(0.7)
	pt, err := Run(spec, sta+2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CorrectPct != 0 {
		t.Errorf("model B above STA left %v%% correct", pt.CorrectPct)
	}
	if pt.FIRate < 100 {
		t.Errorf("model B above STA FI rate %v too low", pt.FIRate)
	}
	below, err := Run(spec, sta-2)
	if err != nil {
		t.Fatal(err)
	}
	if below.CorrectPct != 100 {
		t.Errorf("model B below STA broke runs: %v%%", below.CorrectPct)
	}
}

func TestReproducibility(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 10,
		Seed:   99,
	}
	a, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed differed:\n%+v\n%+v", a, b)
	}
	spec.Seed = 100
	c, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("different seeds produced identical points")
	}
}

func TestSweepAndPoFF(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 10,
		Seed:   1,
	}
	pts, err := Sweep(spec, []float64{700, 800, 900, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	if pts[0].CorrectPct != 100 {
		t.Errorf("lowest point not clean")
	}
	if pts[3].CorrectPct == 100 {
		t.Errorf("highest point still fully correct")
	}
	poff, ok := PoFF(pts)
	if !ok {
		t.Fatalf("no PoFF found")
	}
	if poff < 750 || poff > 1000 {
		t.Errorf("PoFF %v outside expected range", poff)
	}
	if g := GainOverSTA(777.7, 707); g < 9.9 || g > 10.1 {
		t.Errorf("gain computation wrong: %v", g)
	}
}

// TestSweepMatchesSerial is the determinism guarantee of the sweep
// engine: cross-point scheduling and model caching must not change a
// single bit of any Point relative to the point-serial, uncached
// oracle running the same law — full execution against the oracle's
// full kernel, batched sampling against its per-trial first-fault
// kernel.
func TestSweepMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		ref  refKernel
	}{{ModeFull, refFull}, {ModeAuto, refFirstFault}} {
		spec := Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Mode:   tc.mode,
			Trials: 8,
			Seed:   7,
		}
		freqs := []float64{700, 800, 860, 920}
		par, err := Sweep(spec, freqs)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := refSweep(spec, tc.ref, freqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(ser) {
			t.Fatalf("%v: parallel %d points, serial %d", tc.mode, len(par), len(ser))
		}
		for i := range par {
			if par[i] != ser[i] {
				t.Errorf("%v point %d differs:\nparallel %+v\nserial   %+v", tc.mode, i, par[i], ser[i])
			}
		}
		// Per-trial-input benchmarks exercise the other golden-run path.
		spec.Bench = bench.MicroAdd32()
		par, err = Sweep(spec, freqs[:2])
		if err != nil {
			t.Fatal(err)
		}
		ser, err = refSweep(spec, tc.ref, freqs[:2])
		if err != nil {
			t.Fatal(err)
		}
		for i := range par {
			if par[i] != ser[i] {
				t.Errorf("%v micro point %d differs:\nparallel %+v\nserial   %+v", tc.mode, i, par[i], ser[i])
			}
		}
	}
}

// TestAdaptiveScheduleIndependent pins the adaptive mode's determinism:
// batch decisions depend only on trial-index prefixes, so worker count
// must not influence the result.
func TestAdaptiveScheduleIndependent(t *testing.T) {
	spec := Spec{
		System:    system(),
		Bench:     bench.Median(),
		Model:     core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		TrialsMin: 6,
		TrialsMax: 48,
		Seed:      3,
	}
	freqs := []float64{700, 840, 900}
	spec.Workers = 1
	one, err := Sweep(spec, freqs)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	many, err := Sweep(spec, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != many[i] {
			t.Errorf("point %d depends on worker count:\n1 worker  %+v\n8 workers %+v", i, one[i], many[i])
		}
	}
}

// TestAdaptiveStopsEarly checks that obvious points spend fewer trials
// than TrialsMax while staying correct about their verdict.
func TestAdaptiveStopsEarly(t *testing.T) {
	// A deeply failing point (model B above STA is 0% correct) should
	// stop after the very first batch.
	spec := Spec{
		System:    system(),
		Bench:     bench.MatMult8(),
		Model:     core.ModelSpec{Kind: "B", Vdd: 0.7},
		TrialsMin: 8,
		TrialsMax: 200,
		Seed:      1,
	}
	sta := system().STALimitMHz(0.7)
	pt, err := Run(spec, sta+5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Trials != 8 {
		t.Errorf("hopeless point ran %d trials, want 8", pt.Trials)
	}
	if pt.CorrectPct != 0 {
		t.Errorf("model B above STA left %v%% correct", pt.CorrectPct)
	}
	// A clean point stops once the Wilson lower bound clears 1-eps
	// (n/(n+z^2) >= 0.95 at about 73 trials for z=1.96), well short of
	// TrialsMax.
	clean := Spec{
		System:    system(),
		Bench:     bench.MatMult8(),
		Model:     core.ModelSpec{Kind: "C", Vdd: 0.7},
		TrialsMin: 16,
		TrialsMax: 400,
		Seed:      1,
	}
	pt, err = Run(clean, 700)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CorrectPct != 100 {
		t.Errorf("clean point not correct: %v%%", pt.CorrectPct)
	}
	if pt.Trials >= 400 {
		t.Errorf("clean point exhausted TrialsMax (%d trials)", pt.Trials)
	}
	if pt.Trials < 73 {
		t.Errorf("clean point stopped at %d trials, before the Wilson bound can clear 0.95", pt.Trials)
	}
}

// TestProgressReporting checks the engine's progress stream: monotone
// done counts, a stable point total, and a final snapshot covering every
// scheduled trial.
func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 5,
		Seed:   1,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	}
	if _, err := Sweep(spec, []float64{700, 750}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 10 {
		t.Fatalf("got %d progress snapshots, want one per trial (10)", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.DoneTrials != 10 || last.TotalTrials != 10 {
		t.Errorf("final snapshot %+v, want 10/10 trials", last)
	}
	if last.DonePoints != 2 || last.TotalPoints != 2 {
		t.Errorf("final snapshot %+v, want 2/2 points", last)
	}
}

func TestPoFFEdgeCases(t *testing.T) {
	if f, ok := PoFF(nil); ok || f != 0 {
		t.Errorf("PoFF(empty) = %v, %v; want 0, false", f, ok)
	}
	allCorrect := []Point{
		{FreqMHz: 700, CorrectPct: 100},
		{FreqMHz: 750, CorrectPct: 100},
	}
	if f, ok := PoFF(allCorrect); ok || f != 0 {
		t.Errorf("PoFF(all correct) = %v, %v; want 0, false", f, ok)
	}
	firstFails := []Point{
		{FreqMHz: 700, CorrectPct: 99},
		{FreqMHz: 750, CorrectPct: 0},
	}
	if f, ok := PoFF(firstFails); !ok || f != 700 {
		t.Errorf("PoFF(first fails) = %v, %v; want 700, true", f, ok)
	}
}

func TestGainOverSTAEdgeCases(t *testing.T) {
	if g := GainOverSTA(707, 707); g != 0 {
		t.Errorf("zero gain computed as %v", g)
	}
	if g := GainOverSTA(636.3, 707); g > -9.9 || g < -10.1 {
		t.Errorf("negative gain computed as %v, want about -10", g)
	}
}

func TestSweepEmptyFreqs(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 1,
		Seed:   1,
	}
	pts, err := Sweep(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Errorf("empty sweep returned %d points", len(pts))
	}
}

// TestSweepInvalidMidpoint preserves the serial path's contract: a sweep
// crossing the non-ALU safe limit returns the valid prefix and an error.
func TestSweepInvalidMidpoint(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7},
		Trials: 2,
		Seed:   1,
	}
	pts, err := Sweep(spec, []float64{700, 720, 1200, 740})
	if err == nil {
		t.Fatalf("sweep beyond the non-ALU safe limit accepted")
	}
	if len(pts) != 2 {
		t.Errorf("got %d prefix points, want 2", len(pts))
	}
}

func TestNonALULimitRejected(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7},
		Trials: 2,
		Seed:   1,
	}
	if _, err := Run(spec, 1200); err == nil {
		t.Errorf("operating point beyond the non-ALU safe limit accepted")
	}
}

func TestPerTrialInputsMicro(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.MicroAdd32(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 6,
		Seed:   1,
	}
	pt, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CorrectPct != 100 {
		t.Errorf("micro golden not correct: %v%%", pt.CorrectPct)
	}
}

func TestModelAInjects(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.MatMult8(),
		Model:  core.ModelSpec{Kind: "A", ProbA: 1e-4},
		Trials: 5,
		Seed:   1,
	}
	pt, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FIRate == 0 {
		t.Errorf("model A injected nothing")
	}
	// Model A has no frequency awareness: the rate is identical at any
	// frequency.
	pt2, err := Run(spec, 900)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FIRate != pt2.FIRate {
		t.Errorf("model A rate depends on frequency: %v vs %v", pt.FIRate, pt2.FIRate)
	}
}
