// Trial-path, sweep and cold-path benches: each production path against
// the reference oracle it replaced (reference_test.go), on unchanged
// specs so the committed BENCH_*.json snapshots stay comparable. The
// scripts under scripts/ run them and CI asserts the acceptance bars
// from fresh numbers.
package mc

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var (
	benchSysOnce sync.Once
	benchSys     *core.System
)

// benchSystem shares one reduced-characterization system across benches.
func benchSystem() *core.System {
	benchSysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 2048
		benchSys = core.New(cfg)
	})
	return benchSys
}

// ---------------------------------------------------------------------
// Sweep-engine benches: the multi-frequency sweep through the shared
// worker pool with cached models (BenchmarkSweepEngine) against the
// point-serial oracle that rebuilds the model per point and runs every
// trial in full (BenchmarkSweepSerial). Many frequencies with few
// trials each is the engine's best case: the serial path can use at
// most trials-per-point cores between barriers, the engine keeps every
// core busy across the whole sweep.

func sweepBenchInputs() (Spec, []float64) {
	spec := Spec{
		System: benchSystem(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 4,
		Seed:   1,
	}
	var freqs []float64
	for f := 690.0; f <= 910; f += 20 {
		freqs = append(freqs, f)
	}
	return spec, freqs
}

func BenchmarkSweepEngine(b *testing.B) {
	spec, freqs := sweepBenchInputs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(spec, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	spec, freqs := sweepBenchInputs()
	for i := 0; i < b.N; i++ {
		if _, err := refSweep(spec, refFull, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepAdaptive runs the same sweep under adaptive trial
// allocation: clean and hopeless points stop at the Wilson decision,
// boundary points run to the budget.
func BenchmarkSweepAdaptive(b *testing.B) {
	spec, freqs := sweepBenchInputs()
	spec.Trials = 0
	spec.TrialsMin = 4
	spec.TrialsMax = 32
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(spec, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Trial-path benches on a sub-PoFF model-C point, where most trials
// never inject a single fault: batched first-fault sampling
// (BenchmarkPointFirstFault, the default path) against the golden-trace
// replay scan oracle (BenchmarkPointReplay — one injector query per
// recorded ALU cycle) against full per-trial ISS execution
// (BenchmarkPointFull, ModeFull). Acceptance bars: scan >= 2x over
// full, first-fault >= 10x over scan.

func replayBenchSpec() Spec {
	return Spec{
		System: benchSystem(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 16,
		Seed:   1,
	}
}

func BenchmarkPointFirstFault(b *testing.B) {
	spec := replayBenchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, 700); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointReplay(b *testing.B) {
	spec := replayBenchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := refRun(spec, refScan, 700); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointFull(b *testing.B) {
	spec := replayBenchSpec()
	spec.Mode = ModeFull
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, 700); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Batched-execution benches on a faulting-heavy above-PoFF model-C
// point of the two-phase checksum kernel, where ~95% of trials fork
// thousands of cycles past the last checkpoint: the batched default
// (order-statistics planning plus shared-prefix walkers) against the
// per-trial first-fault oracle (checkpoint restore and golden replay
// per trial). Workers is pinned so the committed BENCH_batch.json
// numbers are comparable across machines of different widths.
// Acceptance bar: batched >= 5x over per-trial first-fault
// (scripts/bench_batch.sh asserts it in CI from a fresh run).

func batchBenchSpec() Spec {
	return Spec{
		System:  benchSystem(),
		Bench:   bench.Checksum(),
		Model:   core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials:  200,
		Workers: 4,
		Seed:    1,
	}
}

func BenchmarkChecksumBatched(b *testing.B) {
	spec := batchBenchSpec()
	if _, err := Run(spec, 840); err != nil { // warm golden + hazard caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, 840); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksumFirstFault(b *testing.B) {
	spec := batchBenchSpec()
	if _, err := refRun(spec, refFirstFault, 840); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refRun(spec, refFirstFault, 840); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Cold-path benches for the pipelined concurrent resolver: cold grids
// pay DTA characterization, golden-trace recording, model construction
// and hazard-table builds before the first trial runs. The headline
// pair measures the singleflight win under contention — 8 concurrent
// submissions of one cold grid against a shared System (every build
// deduped to a single flight) against the same 8 submissions each
// paying its builds privately on the serial-resolve oracle, the
// per-request cost the old caches imposed on concurrent identical
// requests. The ratio is work-dedup, not core-scaling, so it holds on
// any machine width. Acceptance bar: deduped >= 3x over duplicated
// (scripts/bench_cold.sh asserts it in CI from a fresh run). The second
// pair isolates the pipelining of one lone submission against the
// serial resolve-then-run oracle.

// coldSystem builds a private reduced-characterization System so every
// iteration starts with empty model/golden/hazard caches.
func coldSystem() *core.System {
	cfg := core.DefaultConfig()
	cfg.DTA.Cycles = 512
	return core.New(cfg)
}

// coldGrid is the benchmark workload: a multi-benchmark, multi-model,
// multi-frequency grid whose 8 cells share 2 goldens, 4 models and 4
// hazard tables — enough distinct keys that resolution dominates and
// the resolver has real parallelism to exploit.
func coldGrid(sys *core.System) Grid {
	return Grid{
		Spec: Spec{
			System:  sys,
			Model:   core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
			Trials:  2,
			Workers: 8,
			Seed:    3,
		},
		Axes: Axes{
			Benches: []*bench.Benchmark{bench.Median(), bench.MatMult8()},
			Kinds:   []string{"B+", "C"},
			Freqs:   []float64{700, 720},
		},
	}
}

// BenchmarkColdSubmissionsDeduped: 8 concurrent cold submissions of the
// same grid against one shared System. The singleflight caches collapse
// the 8 identical build sets into one flight per distinct key, so total
// work per iteration is one cold run plus 7 cheap waits.
func BenchmarkColdSubmissionsDeduped(b *testing.B) {
	const clients = 8
	for i := 0; i < b.N; i++ {
		sys := coldSystem()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := coldGrid(sys).Run(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		b.ReportMetric(float64(sys.ModelsBuiltCount()), "models-built")
		b.ReportMetric(float64(sys.GoldenRecordedCount()), "goldens-recorded")
		b.ReportMetric(float64(sys.HazardBuiltCount()), "hazards-built")
	}
}

// BenchmarkColdSubmissionsDuplicated: the same 8 concurrent cold
// submissions, each against a private System on the serial-resolve
// oracle — every submission pays its own characterization, goldens,
// models and hazards, the way concurrent identical requests behaved
// before the caches became singleflight.
func BenchmarkColdSubmissionsDuplicated(b *testing.B) {
	const clients = 8
	for i := 0; i < b.N; i++ {
		var built, recorded, hazards int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sys := coldSystem()
				if _, err := refSerialResolve(coldGrid(sys)); err != nil {
					b.Error(err)
					return
				}
				mu.Lock()
				built += sys.ModelsBuiltCount()
				recorded += sys.GoldenRecordedCount()
				hazards += sys.HazardBuiltCount()
				mu.Unlock()
			}()
		}
		wg.Wait()
		b.ReportMetric(float64(built), "models-built")
		b.ReportMetric(float64(recorded), "goldens-recorded")
		b.ReportMetric(float64(hazards), "hazards-built")
	}
}

// BenchmarkColdGridPipelined: one lone cold submission on the default
// path — cells resolve concurrently and stream into the trial engine
// as they land.
func BenchmarkColdGridPipelined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := coldGrid(coldSystem()).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdGridSerial: the same lone submission on the
// serial-resolve oracle — every cell resolved in enumeration order
// before the engine starts.
func BenchmarkColdGridSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := refSerialResolve(coldGrid(coldSystem())); err != nil {
			b.Fatal(err)
		}
	}
}
