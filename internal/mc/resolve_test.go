package mc

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
)

// resolveSpec is the base spec of the resolver differential tests: a
// multi-benchmark, multi-model grid small enough to run the serial
// reference repeatedly.
func resolveSpec(s *core.System) Spec {
	return Spec{
		System: s,
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
		Trials: 4,
		Seed:   3,
	}
}

// TestPipelinedResolverMatchesSerial pins the concurrent resolver
// bit-identical to the serial reference path: the same grid, resolved
// serially (refSerialResolve) and pipelined at several worker counts,
// must produce the same []CellResult — Points, Cached flags, order.
func TestPipelinedResolverMatchesSerial(t *testing.T) {
	axes := Axes{
		Benches: []*bench.Benchmark{bench.Median(), bench.MatMult8()},
		Kinds:   []string{"B+", "C"},
		Freqs:   []float64{700, 720},
	}
	want, err := refSerialResolve(Grid{Spec: resolveSpec(system()), Axes: axes})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 8 {
		t.Fatalf("reference grid has %d cells, want 8", len(want))
	}
	for _, workers := range []int{1, 2, 8} {
		g := Grid{Spec: resolveSpec(system()), Axes: axes}
		g.Spec.Workers = workers
		got, err := g.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: pipelined results diverge from the serial resolver\ngot  %+v\nwant %+v",
				workers, got, want)
		}
	}
}

// TestPipelinedResolverErrorPrefix pins the error-prefix semantics
// across resolution schedules: a grid whose middle cell is unbuildable
// (sub-threshold supply) must return exactly the valid prefix plus that
// cell's error, no matter how many resolver workers raced ahead.
func TestPipelinedResolverErrorPrefix(t *testing.T) {
	// Enumeration order is Vdd-major: (0.7, 700), (0.7, 720), then the
	// invalid (0.3, 700) ends the grid at index 2.
	axes := Axes{Vdds: []float64{0.7, 0.3}, Freqs: []float64{700, 720}}
	want, wantErr := refSerialResolve(Grid{Spec: resolveSpec(system()), Axes: axes})
	if wantErr == nil {
		t.Fatal("serial reference accepted the sub-threshold cell")
	}
	if len(want) != 2 {
		t.Fatalf("serial reference kept %d cells, want the 2-cell valid prefix", len(want))
	}
	for _, workers := range []int{1, 2, 8} {
		g := Grid{Spec: resolveSpec(system()), Axes: axes}
		g.Spec.Workers = workers
		got, err := g.Run()
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: err=%v, want %v", workers, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: valid prefix diverges from the serial resolver\ngot  %+v\nwant %+v",
				workers, got, want)
		}
	}
}

// TestConcurrentColdSubmissionsDedupe pins the singleflight win the
// pipelined cold path exists for: 8 concurrent submissions of one cold
// grid against a shared System must do exactly the work of a single
// submission — every build counter equal to a lone serial run's — and
// return identical results. The old caches would have built the same
// models, goldens and hazards up to 8 times each and kept one.
func TestConcurrentColdSubmissionsDedupe(t *testing.T) {
	freshSystem := func() *core.System {
		cfg := core.DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
		return core.New(cfg)
	}
	axes := Axes{Kinds: []string{"B+", "C"}, Freqs: []float64{700, 720}}

	// Reference: one cold serial submission, counters recorded.
	refSys := freshSystem()
	want, err := refSerialResolve(Grid{Spec: resolveSpec(refSys), Axes: axes})
	if err != nil {
		t.Fatal(err)
	}

	shared := freshSystem()
	const clients = 8
	results := make([][]CellResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = (Grid{Spec: resolveSpec(shared), Axes: axes}).Run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("client %d diverged from the serial cold run", i)
		}
	}

	// Total work across all 8 concurrent cold submissions = one run.
	if got, ref := shared.GoldenRecordedCount(), refSys.GoldenRecordedCount(); got != ref {
		t.Errorf("concurrent submissions recorded %d goldens, single run %d", got, ref)
	}
	if got, ref := shared.ModelsBuiltCount(), refSys.ModelsBuiltCount(); got != ref {
		t.Errorf("concurrent submissions built %d models, single run %d", got, ref)
	}
	if got, ref := shared.HazardBuiltCount(), refSys.HazardBuiltCount(); got != ref {
		t.Errorf("concurrent submissions built %d hazard tables, single run %d", got, ref)
	}
	if got, ref := shared.Char.ComputedCount(), refSys.Char.ComputedCount(); got != ref {
		t.Errorf("concurrent submissions computed %d characterizations, single run %d", got, ref)
	}
	if got, ref := shared.CacheSummary(), refSys.CacheSummary(); got != ref {
		t.Errorf("cache traffic diverged:\nconcurrent %s\nsingle     %s", got, ref)
	}
}
