package mc

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fi"
	"repro/internal/stats"
)

// wilsonZ99 widens the agreement intervals below to 99% so the fixed
// seeds stay comfortably inside them.
const wilsonZ99 = 2.5758293035489004

// overlap reports whether the Wilson intervals of two binomial counts
// intersect.
func overlap(k1, n1, k2, n2 int) bool {
	lo1, hi1 := stats.Wilson(k1, n1, wilsonZ99)
	lo2, hi2 := stats.Wilson(k2, n2, wilsonZ99)
	return lo1 <= hi2 && lo2 <= hi1
}

// count converts a Point percentage back into a trial count.
func count(pct float64, trials int) int {
	return int(pct/100*float64(trials) + 0.5)
}

// agree asserts the statistical-equivalence contract between a
// first-fault Point and its scan reference: the correct and finished
// proportions must have overlapping Wilson intervals, and the FI rates
// must be of the same magnitude whenever the reference injects at all.
func agree(t *testing.T, name string, ff, sc Point) {
	t.Helper()
	if !overlap(count(ff.CorrectPct, ff.Trials), ff.Trials, count(sc.CorrectPct, sc.Trials), sc.Trials) {
		t.Errorf("%s: correct%% disagrees: first-fault %v (n=%d) vs scan %v (n=%d)",
			name, ff.CorrectPct, ff.Trials, sc.CorrectPct, sc.Trials)
	}
	if !overlap(count(ff.FinishedPct, ff.Trials), ff.Trials, count(sc.FinishedPct, sc.Trials), sc.Trials) {
		t.Errorf("%s: finished%% disagrees: first-fault %v vs scan %v",
			name, ff.FinishedPct, sc.FinishedPct)
	}
	if sc.FIRate > 0 {
		if r := ff.FIRate / sc.FIRate; r < 0.4 || r > 2.5 {
			t.Errorf("%s: FI rate off by %vx: first-fault %v vs scan %v",
				name, r, ff.FIRate, sc.FIRate)
		}
	}
}

// TestFirstFaultAgreesWithScan is the statistical-equivalence guarantee
// of first-fault sampling: over large trial counts, Point aggregates
// must agree with the exact replay scan within Wilson confidence
// intervals — below the point of first failure, in the transition
// region, and across model kinds and model C's sampling modes. Fixed
// seeds keep the check deterministic.
func TestFirstFaultAgreesWithScan(t *testing.T) {
	cases := []struct {
		name  string
		model core.ModelSpec
		freqs []float64
	}{
		{"C-independent", core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, []float64{700, 860}},
		{"C-joint", core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sampling: fi.Joint}, []float64{860}},
		{"B+", core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010}, []float64{661}},
		{"A", core.ModelSpec{Kind: "A", ProbA: 5e-6}, []float64{700}},
	}
	for _, tc := range cases {
		spec := Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  tc.model,
			Trials: 600,
			Seed:   13,
		}
		for _, f := range tc.freqs {
			ff, err := Run(spec, f) // ModeAuto: first-fault sampling
			if err != nil {
				t.Fatalf("%s at %v MHz: %v", tc.name, f, err)
			}
			sc, err := refRun(spec, refScan, f)
			if err != nil {
				t.Fatalf("%s at %v MHz: %v", tc.name, f, err)
			}
			agree(t, tc.name, ff, sc)
		}
	}
}

// TestFirstFaultNullModelIdenticalToScan pins the hazard-zero fast
// path: with no injection the first-fault trial resolves to the golden
// run, exactly like a fault-free scan — the Points are bit-identical,
// which keeps fault-free fixtures (Table 1) stable across the default
// change.
func TestFirstFaultNullModelIdenticalToScan(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 6,
		Seed:   5,
	}
	ff, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := refRun(spec, refScan, 700)
	if err != nil {
		t.Fatal(err)
	}
	if ff != sc {
		t.Errorf("null-model point differs:\nfirst-fault %+v\nscan        %+v", ff, sc)
	}
}

// TestFirstFaultDeterministic pins reproducibility and schedule
// independence of the sampling path: per-(Seed, trial) RNG derivation
// makes the point identical across repeated runs and worker counts, and
// different seeds draw different outcomes.
func TestFirstFaultDeterministic(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 64,
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
	spec.Workers = 1
	c, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("worker count changed the point:\n%+v\n%+v", a, c)
	}
	spec.Workers = 0
	spec.Seed = 100
	d, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Errorf("different seeds produced identical points")
	}
}

// TestFirstFaultAdaptive runs the sampling path under adaptive trial
// allocation: decisions still depend only on trial-index prefixes, so
// the result is schedule-independent, and the Wilson verdicts must
// agree with the scan path's.
func TestFirstFaultAdaptive(t *testing.T) {
	spec := Spec{
		System:    system(),
		Bench:     bench.Median(),
		Model:     core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		TrialsMin: 8,
		TrialsMax: 64,
		Seed:      3,
	}
	one := spec
	one.Workers = 1
	a, err := Run(spec, 840)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(one, 840)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("adaptive first-fault point depends on schedule:\n%+v\n%+v", a, b)
	}
	// A clean point must still decide clean quickly.
	clean, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if clean.CorrectPct != 100 {
		t.Errorf("clean point not correct: %v%%", clean.CorrectPct)
	}
}
