package mc

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// Benchmarks pinning the cost of per-trial quality scoring against the
// boolean-verdict baseline (the pre-quality engine, approximated by the
// qualityDisabled hook, which skips extractor calls and scores
// correct=1/0). scripts/gates.sh runs both and asserts the
// quality path costs <= 10% extra; the kmeans case is the worst
// realistic extractor (it recomputes the clustering distortion of both
// membership vectors per faulting trial).

func benchSpec(b *bench.Benchmark) Spec {
	return Spec{
		System: system(),
		Bench:  b,
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 40,
		Seed:   7,
	}
}

func runQualityBench(b *testing.B, bm *bench.Benchmark, disabled bool) {
	b.Helper()
	spec := benchSpec(bm)
	// Warm the model/golden caches so the loop measures trial execution.
	if _, err := Run(spec, 860); err != nil {
		b.Fatal(err)
	}
	qualityDisabled = disabled
	defer func() { qualityDisabled = false }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, 860); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialsMedianQuality(b *testing.B)   { runQualityBench(b, bench.Median(), false) }
func BenchmarkTrialsMedianBoolean(b *testing.B)   { runQualityBench(b, bench.Median(), true) }
func BenchmarkTrialsKMeansQuality(b *testing.B)   { runQualityBench(b, bench.KMeans(), false) }
func BenchmarkTrialsKMeansBoolean(b *testing.B)   { runQualityBench(b, bench.KMeans(), true) }
func BenchmarkTrialsMatMult8Quality(b *testing.B) { runQualityBench(b, bench.MatMult8(), false) }
func BenchmarkTrialsMatMult8Boolean(b *testing.B) { runQualityBench(b, bench.MatMult8(), true) }
