// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (run the cmd/paperrepro binary for full-fidelity regeneration;
// these benches exercise the identical code paths at reduced scale so
// they finish in seconds and can be profiled), plus ablation benches for
// the design choices called out in DESIGN.md. The trial-path, sweep and
// cold-path benches that measure a production path against its
// reference oracle live in internal/mc (bench_test.go there).
package repro

import (
	"io"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fi"
	"repro/internal/mc"
)

var (
	sysOnce sync.Once
	sysInst *core.System
)

// benchSystem shares one reduced-characterization system across benches.
func benchSystem() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 2048
		sysInst = core.New(cfg)
	})
	return sysInst
}

func benchOptions() experiments.Options {
	return experiments.Options{
		System: benchSystem(),
		Out:    io.Discard,
		Scale:  0.08,
		Seed:   1,
	}
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Table2(o)
	}
}

func BenchmarkFig1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	o := benchOptions()
	o.Scale = 0.04
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	o := benchOptions()
	o.Scale = 0.04
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	o := benchOptions()
	o.Scale = 0.04
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(o); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benches: quantify the cost/behaviour of the design choices.

// ablationSpec runs the median kernel in the transition region.
func ablationSpec(model core.ModelSpec) mc.Spec {
	return mc.Spec{
		System: benchSystem(),
		Bench:  bench.Median(),
		Model:  model,
		Trials: 8,
		Seed:   1,
	}
}

// BenchmarkAblationFaultSemantics compares flip-bit (the paper's choice)
// against stale-capture endpoint semantics.
func BenchmarkAblationFaultSemantics(b *testing.B) {
	for _, sem := range []fi.Semantics{fi.FlipBit, fi.StaleCapture} {
		sem := sem
		b.Run(sem.String(), func(b *testing.B) {
			spec := ablationSpec(core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sem: sem})
			for i := 0; i < b.N; i++ {
				pt, err := mc.Run(spec, 840)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.CorrectPct, "correct%")
			}
		})
	}
}

// BenchmarkAblationSampling compares the paper-literal independent
// per-endpoint CDF sampling against joint (bootstrap) cycle sampling.
func BenchmarkAblationSampling(b *testing.B) {
	for _, s := range []fi.Sampling{fi.Independent, fi.Joint} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			spec := ablationSpec(core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sampling: s})
			for i := 0; i < b.N; i++ {
				pt, err := mc.Run(spec, 840)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.FIRate, "FI/kCycle")
			}
		})
	}
}

// BenchmarkAblationInstrAware contrasts the instruction-aware model C
// against the instruction-blind static models at the same operating
// point (the core comparison of the paper).
func BenchmarkAblationInstrAware(b *testing.B) {
	for _, kind := range []string{"C", "B+"} {
		kind := kind
		b.Run("model"+kind, func(b *testing.B) {
			spec := ablationSpec(core.ModelSpec{Kind: kind, Vdd: 0.7, Sigma: 0.010})
			for i := 0; i < b.N; i++ {
				pt, err := mc.Run(spec, 690)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.FinishedPct, "finished%")
			}
		})
	}
}

// BenchmarkGridWarmVsCold measures the artifact store's warm-start win:
// Cold builds a fresh system and an empty cache directory per iteration
// (paying DTA characterization, golden-trace recording, and every
// trial), Warm replays the identical grid from a populated store with a
// fresh system (file reads only). The ratio is the per-process cost the
// persistent cache removes.
func BenchmarkGridWarmVsCold(b *testing.B) {
	gridOver := func(st *artifact.Store, resume bool) error {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 512
		sys := core.New(cfg)
		sys.AttachStore(st)
		_, err := mc.Grid{
			Spec: mc.Spec{
				System: sys,
				Bench:  bench.Median(),
				Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
				Trials: 8,
				Seed:   2,
			},
			Axes:   mc.Axes{Freqs: []float64{700, 740}},
			Store:  st,
			Resume: resume,
		}.Run()
		return err
	}
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := artifact.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := gridOver(st, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		st, err := artifact.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := gridOver(st, false); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := gridOver(st, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkISS measures raw simulator throughput (cycles/sec) on the
// dijkstra kernel without fault injection.
func BenchmarkISS(b *testing.B) {
	spec := mc.Spec{
		System: benchSystem(),
		Bench:  bench.Dijkstra(),
		Model:  core.ModelSpec{Kind: "none"},
		Trials: 1,
		Seed:   1,
	}
	var cycles float64
	for i := 0; i < b.N; i++ {
		pt, err := mc.Run(spec, 707)
		if err != nil {
			b.Fatal(err)
		}
		cycles += pt.KernelCycles
	}
	b.ReportMetric(cycles/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkModelCInjection measures the per-cycle cost of the model C
// hot path on the matmul kernel in the failing region.
func BenchmarkModelCInjection(b *testing.B) {
	spec := mc.Spec{
		System: benchSystem(),
		Bench:  bench.MatMult16(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 4,
		Seed:   1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(spec, 800); err != nil {
			b.Fatal(err)
		}
	}
}
