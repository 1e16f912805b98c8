package mc

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fi"
)

// TestBatchedBitIdenticalToFirstFault is the batched path's core
// guarantee: for a fixed seed, planning a whole cell's trials in one
// order-statistics pass and executing the faulting remainder over
// shared walker prefixes must reproduce the per-trial first-fault oracle
// bit for bit — every Point field, across model kinds, both fault
// semantics, both sampling modes, and benchmarks with different query
// mixes. Frequencies sit in each model's transition region so the
// batch contains a healthy mix of clean and faulting trials.
func TestBatchedBitIdenticalToFirstFault(t *testing.T) {
	cases := []struct {
		name  string
		bench *bench.Benchmark
		model core.ModelSpec
		freqs []float64
	}{
		{"A", bench.Median(), core.ModelSpec{Kind: "A", ProbA: 3e-4}, []float64{700}},
		{"B", bench.Median(), core.ModelSpec{Kind: "B", Vdd: 0.7}, []float64{700, 796}},
		{"B+", bench.Median(), core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010}, []float64{661, 700}},
		{"C-independent", bench.Median(), core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, []float64{700, 840, 860}},
		{"C-joint", bench.Median(), core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sampling: fi.Joint}, []float64{860}},
		{"C-stale", bench.Median(), core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sem: fi.StaleCapture}, []float64{860}},
		{"C-mat", bench.MatMult8(), core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, []float64{850}},
		{"none", bench.Median(), core.ModelSpec{Kind: "none"}, []float64{700}},
	}
	for _, tc := range cases {
		spec := Spec{
			System: system(),
			Bench:  tc.bench,
			Model:  tc.model,
			Trials: 200,
			Seed:   29,
		}
		for _, f := range tc.freqs {
			batched, err := Run(spec, f) // ModeAuto: batched by default
			if err != nil {
				t.Fatalf("%s at %v MHz: %v", tc.name, f, err)
			}
			ref, err := refRun(spec, refFirstFault, f)
			if err != nil {
				t.Fatalf("%s at %v MHz: %v", tc.name, f, err)
			}
			if batched != ref {
				t.Errorf("%s at %v MHz: batched point differs from per-trial first-fault:\nbatched %+v\nref     %+v",
					tc.name, f, batched, ref)
			}
		}
	}
}

// TestBatchedScheduleIndependent pins that chunk geometry and worker
// count leave a batched point untouched: chunks are sized from the
// window, never from the schedule, and per-trial RNG streams make the
// trials independent.
func TestBatchedScheduleIndependent(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 150,
		Seed:   41,
	}
	ref, err := Run(spec, 860)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 7} {
		s := spec
		s.Workers = w
		got, err := Run(s, 860)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("Workers=%d changed the batched point:\n%+v\n%+v", w, got, ref)
		}
	}
}

// TestBatchedAdaptive runs the batched path under adaptive trial
// allocation: every extension window is planned as its own batch, and
// the verdict must be bit-identical to the per-trial oracle's, which
// runs each extension through a per-point worker pool.
func TestBatchedAdaptive(t *testing.T) {
	spec := Spec{
		System:    system(),
		Bench:     bench.Median(),
		Model:     core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		TrialsMin: 8,
		TrialsMax: 96,
		Seed:      7,
	}
	for _, f := range []float64{700, 840, 880} {
		batched, err := Run(spec, f)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refRun(spec, refFirstFault, f)
		if err != nil {
			t.Fatal(err)
		}
		if batched != ref {
			t.Errorf("adaptive point at %v MHz differs:\nbatched %+v\nref     %+v", f, batched, ref)
		}
	}
}

// TestBatchedAgreesWithScanAbovePoFF closes the loop against the exact
// replay scan oracle at a deeply faulting operating point (above the
// point of first failure, where almost every trial forks): batched
// aggregates must stay inside the scan's Wilson intervals.
func TestBatchedAgreesWithScanAbovePoFF(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 600,
		Seed:   13,
	}
	const f = 880 // above the ~870 MHz PoFF of this cell
	batched, err := Run(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := refRun(spec, refScan, f)
	if err != nil {
		t.Fatal(err)
	}
	if batched.CorrectPct > 50 {
		t.Fatalf("point not above PoFF: correct=%v%%", batched.CorrectPct)
	}
	agree(t, "above-PoFF", batched, sc)
}
