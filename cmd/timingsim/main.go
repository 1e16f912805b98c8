// Command timingsim runs one benchmark under a fault-injection model at
// one operating point and reports the paper's application metrics. It
// runs a one-cell server.JobSpec through Canonicalize and JobSpec.Grid,
// the same lowering as sweep and fisimd.
//
//	timingsim -bench median -model C -freq 800 -vdd 0.7 -sigma 0.010 -trials 200
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/progress"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("timingsim: ")
	name := flag.String("bench", "median", "benchmark name (median, mat_mult_8bit, mat_mult_16bit, kmeans, dijkstra, micro_*)")
	model := flag.String("model", "C", "fault model: none, A, B, B+, C")
	freq := flag.Float64("freq", 707, "clock frequency in MHz")
	vdd := flag.Float64("vdd", 0.7, "supply voltage in V")
	sigma := flag.Float64("sigma", 0, "supply noise sigma in V")
	probA := flag.Float64("probA", core.DefaultProbA, "model A per-endpoint flip probability")
	trials := flag.Int("trials", 100, "Monte-Carlo trials (fixed mode)")
	trialsMin := flag.Int("trials-min", 0, "adaptive mode: first batch size (with -trials-max)")
	trialsMax := flag.Int("trials-max", 0, "adaptive mode: trial budget (0 = fixed -trials)")
	seed := flag.Int64("seed", 1, "random seed")
	dtaCycles := flag.Int("dta", 8192, "DTA characterization cycles")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (characterizations, golden traces)")
	stale := flag.Bool("stale", false, "use stale-capture fault semantics")
	joint := flag.Bool("joint", false, "use joint (bootstrap) endpoint sampling for model C")
	quiet := flag.Bool("q", false, "suppress the stderr progress line")
	flag.Parse()

	spec := server.JobSpec{
		Benches: []string{*name}, Models: []string{*model},
		Vdds: []float64{*vdd}, Sigmas: []float64{*sigma}, Freqs: []float64{*freq},
		Trials: *trials, TrialsMin: *trialsMin, TrialsMax: *trialsMax, Seed: *seed,
	}
	if *stale {
		spec.Semantics = "stale-capture"
	}
	if *joint {
		spec.Sampling = "joint"
	}
	spec, err := spec.Canonicalize()
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DTA.Cycles = *dtaCycles
	sys := core.New(cfg)
	if *cacheDir != "" {
		st, err := artifact.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		sys.AttachStore(st)
	}

	var rep *progress.Reporter
	if !*quiet {
		rep = progress.New(os.Stderr, "timingsim")
	}
	grid, err := spec.Grid(sys, nil, 0, func(p mc.Progress) {
		rep.Update(p.DoneTrials, p.TotalTrials)
	})
	if err != nil {
		log.Fatal(err)
	}
	grid.Spec.Model.ProbA = *probA
	cells, err := grid.Run()
	rep.Finish()
	if err != nil {
		log.Fatal(err)
	}
	b, pt := grid.Axes.Benches[0], cells[0].Point
	fmt.Printf("benchmark      %s (%s)\n", b.Name, b.MetricName)
	fmt.Printf("model          %s @ %.1f MHz, Vdd %.3f V, sigma %.0f mV\n",
		*model, *freq, *vdd, *sigma*1000)
	fmt.Printf("STA limit      %.1f MHz at this Vdd\n", sys.STALimitMHz(*vdd))
	fmt.Printf("trials         %d\n", pt.Trials)
	fmt.Printf("finished       %.1f%%\n", pt.FinishedPct)
	fmt.Printf("correct        %.1f%%\n", pt.CorrectPct)
	fmt.Printf("FI rate        %.4f per kCycle\n", pt.FIRate)
	fmt.Printf("output error   %.4g (finished runs)\n", pt.OutputErr)
	fmt.Printf("kernel cycles  %.0f\n", pt.KernelCycles)
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "timingsim: cache %s: %s\n", *cacheDir, sys.CacheSummary())
	}
}
