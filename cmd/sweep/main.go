// Command sweep runs benchmarks under fault models across a frequency
// range — and, with comma-separated axis values, across a full
// (benchmark × model × Vdd × sigma × frequency) experiment grid — and
// prints the four application metrics per point, including each
// series' point of first failure and its gain over the STA limit. The
// whole grid runs through the shared worker pool of the mc engine, with
// a progress/ETA line on stderr. The grid flags fill a server.JobSpec,
// validated by Canonicalize and lowered by JobSpec.Grid exactly as
// fisimd runs a submitted job, so `fisimctl submit` with the same flags
// computes the same cells.
//
// With -cache-dir, DTA characterizations, golden traces and completed
// grid cells persist across runs: a warm second run skips straight to
// the numbers, and -resume additionally reuses completed cells so an
// interrupted grid continues where it stopped.
//
// Every point carries the per-trial application-quality distribution
// (mean/P50/P99 + Wilson-style interval) alongside the boolean
// verdict, and -pareto additionally scores each grid cell under the
// error-mitigation models (baseline, razor detect-and-replay, coded
// datapath) and writes the energy-vs-quality Pareto document — the
// non-dominated operating points per (benchmark × model × Vdd ×
// sigma) — to the given file in the -format encoding.
//
//	sweep -bench kmeans -model C -vdd 0.7 -sigma 0.010 -lo 680 -hi 950 -step 10
//	sweep -bench median,kmeans -model B+,C -sigma 0,0.010,0.025 -cache-dir .fisim-cache -resume
//	sweep -bench median -model C -format json -o sweep.json
//	sweep -bench kmeans -model C -sigma 0.010 -format csv -pareto pareto.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/mitigate"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var gf server.GridFlags
	gf.Register(flag.CommandLine)
	workers := flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")
	dtaCycles := flag.Int("dta", 8192, "DTA characterization cycles")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (characterizations, golden traces, grid cells)")
	resume := flag.Bool("resume", false, "reuse completed grid cells from -cache-dir")
	format := flag.String("format", "", "machine-readable output: json or csv (default: text tables)")
	outFile := flag.String("o", "", "write -format output to this file (default stdout)")
	paretoFile := flag.String("pareto", "", "also write the energy-vs-quality Pareto report (mitigation scenarios per cell) to this file, in the -format encoding (default csv)")
	quiet := flag.Bool("q", false, "suppress the stderr progress line")
	flag.Parse()

	if *resume && *cacheDir == "" {
		log.Fatal("-resume requires -cache-dir")
	}
	spec, err := gf.JobSpec()
	if err == nil {
		spec, err = spec.Canonicalize()
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DTA.Cycles = *dtaCycles
	sys := core.New(cfg)

	var store *artifact.Store
	if *cacheDir != "" {
		if store, err = artifact.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		sys.AttachStore(store)
	}

	var rep *progress.Reporter
	if !*quiet {
		rep = progress.New(os.Stderr, "sweep")
	}
	grid, err := spec.Grid(sys, store, *workers, func(p mc.Progress) {
		rep.Update(p.DoneTrials, p.TotalTrials)
	})
	if err != nil {
		log.Fatal(err)
	}
	grid.Resume = *resume
	cells, err := grid.Run()
	rep.Finish()
	if store != nil {
		fmt.Fprintf(os.Stderr, "sweep: cache %s: %s\n", *cacheDir, sys.CacheSummary())
	}
	series := report.FromCells(cells)

	if *format != "" {
		doc := &report.Document{
			Meta: report.Meta{
				Tool:  "sweep",
				Seed:  spec.Seed,
				Cells: len(cells),
				Axes: fmt.Sprintf("bench=%s model=%s vdd=%s sigma=%s freq=%g..%g/%g",
					gf.Bench, gf.Model, gf.Vdd, gf.Sigma, gf.Lo, gf.Hi, gf.Step),
				Cache: *cacheDir,
			},
			Series: series,
		}
		if werr := report.WriteFile(*outFile, os.Stdout, *format, doc); werr != nil {
			log.Fatal(werr)
		}
	} else {
		printSeries(sys, series, len(series) > 1, err != nil)
	}
	if *paretoFile != "" {
		rs := mitigate.Evaluate(sys, grid.Spec.InputSeed, cells, mitigate.Options{})
		pdoc := report.Pareto(report.Meta{
			Tool: "sweep", Seed: spec.Seed, Cells: len(cells), Cache: *cacheDir,
		}, rs)
		pfmt := *format
		if pfmt == "" {
			pfmt = "csv"
		}
		if werr := report.WriteParetoFile(*paretoFile, os.Stdout, pfmt, pdoc); werr != nil {
			log.Fatal(werr)
		}
	}
	if err != nil {
		// A grid crossing an invalid operating point still reports the
		// cells of the valid prefix before failing.
		log.Fatal(err)
	}
}

// printSeries renders each series as the classic sweep table with its
// PoFF/STA summary; series headers appear once the grid has more than
// one series. When the grid ended in an error, the last series is a
// truncated prefix, so its PoFF/no-failure verdict is withheld.
func printSeries(sys *core.System, series []report.Series, headers, truncated bool) {
	for i, s := range series {
		if headers {
			fmt.Printf("== %s ==\n", s.Label)
		}
		metricName := "output-err"
		if b, err := bench.ByName(s.Bench); err == nil {
			metricName = b.MetricName
		}
		if len(s.Points) > 0 {
			fmt.Printf("%8s %7s %9s %9s %12s %14s\n",
				"f[MHz]", "trials", "finished", "correct", "FI/kCycle", metricName)
			for _, p := range s.Points {
				fmt.Printf("%8.1f %7d %8.1f%% %8.1f%% %12.4f %14.6g\n",
					p.FreqMHz, p.Trials, p.FinishedPct, p.CorrectPct, p.FIRate, p.OutputErr)
			}
		}
		if truncated && i == len(series)-1 {
			continue
		}
		sta := sys.STALimitMHz(s.Vdd)
		if poff, ok := mc.PoFF(s.Points); ok {
			fmt.Printf("PoFF %.1f MHz, STA limit %.1f MHz, gain %.1f%%\n",
				poff, sta, mc.GainOverSTA(poff, sta))
		} else {
			fmt.Printf("no failure in range (STA limit %.1f MHz)\n", sta)
		}
	}
}
