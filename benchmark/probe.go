package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fi"
	"repro/internal/mc"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/stats"
)

// Fixed probe points, the same for every workload: the batched
// faulting-heavy checksum point behind the allocation baseline, and a
// fault-free median cell below the point of first failure.
const (
	batchPointMHz    = 840
	faultFreeMHz     = 690
	fixedProbeTrials = 200
	batchRNGs        = 200
)

// Repetitions of the probes that report a median or a mean.
const (
	cellRepeats  = 3    // mc.Run evaluations per cell
	qualityCalls = 2000 // extractor calls per benchmark
)

// probe calls each layer's public entry point directly on the
// workload's inputs, writing one value per per-layer metric the traced
// run did not already measure. Substrates are fresh where the metric is
// a cold build and warm where it is a load or a hot-path call.
func probe(c config, spec server.JobSpec, res *childResult) error {
	spec, err := withSeed(spec, derive(c.seed, 0x9b0))
	if err != nil {
		return err
	}
	dir := filepath.Join(c.dir, "probe")
	substrate, err := artifact.Open(filepath.Join(dir, "substrate"))
	if err != nil {
		return err
	}

	// Cold builds on a fresh System over an empty store.
	cold := core.New(c.core())
	cold.AttachStore(substrate)
	cells, benches, err := gridInputs(cold, spec)
	if err != nil {
		return err
	}
	d, err := timed(func() error { return prewarm(cold, cells) })
	if err != nil {
		return err
	}
	res.put("dta.characterize_s", d.Seconds(), 1)
	res.put("dta.characterizations", float64(cold.Char.ComputedCount()), 1)
	var goldens map[string]*core.Golden
	if d, err = timed(func() (err error) {
		goldens, err = goldensOf(cold, benches, spec.InputSeed)
		return err
	}); err != nil {
		return err
	}
	res.put("core.golden_record_ms", ms(d), 1)
	res.put("core.goldens_recorded", float64(cold.GoldenRecordedCount()), 1)
	if d, err = timed(func() error { return models(cold, cells) }); err != nil {
		return err
	}
	res.put("core.model_build_ms", ms(d), 1)
	res.put("core.models_built", float64(cold.ModelsBuiltCount()), 1)
	if d, err = timed(func() error { return hazards(cold, cells, spec.InputSeed) }); err != nil {
		return err
	}
	res.put("core.hazard_build_ms", ms(d), 1)
	res.put("core.hazards_built", float64(cold.HazardBuiltCount()), 1)

	// Loads on a fresh System over the store the cold builds filled.
	warm := core.New(c.core())
	warm.AttachStore(substrate)
	if d, err = timed(func() error { return prewarm(warm, cells) }); err != nil {
		return err
	}
	res.put("dta.load_ms", ms(d), 1)
	if d, err = timed(func() error {
		_, err := goldensOf(warm, benches, spec.InputSeed)
		return err
	}); err != nil {
		return err
	}
	res.put("core.golden_load_ms", ms(d), 1)
	if err := models(warm, cells); err != nil {
		return err
	}
	if d, err = timed(func() error { return hazards(warm, cells, spec.InputSeed) }); err != nil {
		return err
	}
	res.put("core.hazard_load_ms", ms(d), 1)
	if warm.Char.ComputedCount() != 0 || warm.GoldenRecordedCount() != 0 || warm.HazardBuiltCount() != 0 {
		return fmt.Errorf("warm store recomputed: %s", warm.CacheSummary())
	}
	if err := traceCodec(goldens, res); err != nil {
		return err
	}

	if err := firstTrial(c, spec, res); err != nil {
		return err
	}
	// Hot-path calls on the cold System, whose caches are now warm.
	if err := issRate(cold, benches, spec.InputSeed, res); err != nil {
		return err
	}
	grid, err := spec.Grid(cold, nil, poolWorkers, nil)
	if err != nil {
		return err
	}
	results, err := grid.Run()
	if err != nil {
		return err
	}
	faulting := faultingCells(cells, results)
	hot := faulting[0]
	if err := firstFaultBatch(c, cold, hot, spec.InputSeed, goldens[hot.Bench.Name], res); err != nil {
		return err
	}
	if err := cellRuns(cold, spec, faulting, res); err != nil {
		return err
	}
	if err := quality(benches, goldens, spec.InputSeed, res); err != nil {
		return err
	}
	if err := artifactIO(filepath.Join(dir, "io"), results, goldens, res); err != nil {
		return err
	}
	if err := reportCSV(filepath.Join(dir, "report.csv"), spec.Seed, results, res); err != nil {
		return err
	}
	if _, ok := res.Metrics["server.submit_ms"]; !ok {
		if err := serverProbe(cold, spec, res); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	if _, ok := res.Metrics["cluster.lease_ms"]; !ok {
		if err := clusterProbe(c, cold, spec, res); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// gridInputs enumerates the spec's cells and its distinct benchmarks.
func gridInputs(sys *core.System, spec server.JobSpec) ([]mc.Cell, []*bench.Benchmark, error) {
	g, err := spec.Grid(sys, nil, poolWorkers, nil)
	if err != nil {
		return nil, nil, err
	}
	cells := g.Cells()
	var benches []*bench.Benchmark
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Bench.Name] {
			seen[c.Bench.Name] = true
			benches = append(benches, c.Bench)
		}
	}
	return cells, benches, nil
}

// prewarm characterizes every (profile, Vdd) the grid's DTA-backed
// (model C) cells need.
func prewarm(sys *core.System, cells []mc.Cell) error {
	type pv struct {
		profile string
		vdd     float64
	}
	seen := map[pv]bool{}
	for _, c := range cells {
		k := pv{fmt.Sprint(c.Model.Profile), c.Model.Vdd}
		if c.Model.Kind != "C" || seen[k] {
			continue
		}
		seen[k] = true
		if err := sys.Char.Prewarm(c.Model.Profile, c.Model.Vdd); err != nil {
			return err
		}
	}
	return nil
}

func goldensOf(sys *core.System, benches []*bench.Benchmark, inputSeed int64) (map[string]*core.Golden, error) {
	out := map[string]*core.Golden{}
	for _, b := range benches {
		g, err := sys.Golden(b, inputSeed)
		if err != nil {
			return nil, err
		}
		out[b.Name] = g
	}
	return out, nil
}

func models(sys *core.System, cells []mc.Cell) error {
	for _, c := range cells {
		if _, err := sys.Model(c.Model); err != nil {
			return err
		}
	}
	return nil
}

func hazards(sys *core.System, cells []mc.Cell, inputSeed int64) error {
	for _, c := range cells {
		if _, err := sys.Hazard(c.Bench, inputSeed, c.Model); err != nil {
			return err
		}
	}
	return nil
}

// traceCodec times decoding the grid's golden traces from their stored
// encoding.
func traceCodec(goldens map[string]*core.Golden, res *childResult) error {
	var blobs [][]byte
	total := 0
	for _, g := range goldens {
		b, err := cpu.EncodeTrace(g.Trace)
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
		total += len(b)
	}
	var runs []float64
	for r := 0; r < 5; r++ {
		d, err := timed(func() error {
			for _, b := range blobs {
				if _, err := cpu.DecodeTrace(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		runs = append(runs, ms(d))
	}
	res.put("cpu.trace_decode_ms", median(runs), len(runs))
	res.put("cpu.trace_bytes", float64(total), len(blobs))
	return nil
}

// firstTrial times a cold grid run — fresh System, no store — from its
// start to the first trial's progress callback, then cancels it.
func firstTrial(c config, spec server.JobSpec, res *childResult) error {
	sys := core.New(c.core())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan time.Duration, 1)
	t0 := time.Now()
	grid, err := spec.Grid(sys, nil, poolWorkers, func(mc.Progress) {
		select {
		case first <- time.Since(t0):
			cancel()
		default:
		}
	})
	if err != nil {
		return err
	}
	if _, err := grid.RunContext(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	select {
	case d := <-first:
		res.put("mc.first_trial_s", d.Seconds(), 1)
		return nil
	default:
		return errors.New("first trial: grid ended without progress")
	}
}

// issRate runs the grid's benchmarks fault-free on the ISS until at
// least 200 ms of host time have passed.
func issRate(sys *core.System, benches []*bench.Benchmark, inputSeed int64, res *childResult) error {
	var cycles uint64
	var host time.Duration
	runs := 0
	for host < 200*time.Millisecond {
		for _, b := range benches {
			t0 := time.Now()
			_, _, n, err := sys.GoldenRun(b, inputSeed)
			if err != nil {
				return err
			}
			host += time.Since(t0)
			cycles += n
			runs++
		}
	}
	res.put("cpu.iss_mcycles_per_s", float64(cycles)/host.Seconds()/1e6, runs)
	return nil
}

// faultingCells returns the grid's cells with fewer than all trials
// correct in results, least correct first (enumeration order among
// equals); when none faults, the first cell alone.
func faultingCells(cells []mc.Cell, results []mc.CellResult) []mc.Cell {
	var idx []int
	for i, r := range results {
		if r.Point.CorrectPct < 100 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return cells[:1]
	}
	sort.SliceStable(idx, func(a, b int) bool { return results[idx[a]].Point.CorrectPct < results[idx[b]].Point.CorrectPct })
	out := make([]mc.Cell, len(idx))
	for k, i := range idx {
		out[k] = cells[i]
	}
	return out
}

// firstFaultBatch times first-fault planning of batchRNGs trials
// against the faulting cell's warm hazard table.
func firstFaultBatch(c config, sys *core.System, cell mc.Cell, inputSeed int64, g *core.Golden, res *childResult) error {
	model, err := sys.Model(cell.Model)
	if err != nil {
		return err
	}
	hm, ok := model.(fi.HazardModel)
	if !ok {
		return fmt.Errorf("model %s has no hazard form", model.Name())
	}
	hz, err := sys.Hazard(cell.Bench, inputSeed, cell.Model)
	if err != nil {
		return err
	}
	var runs []float64
	rngs := make([]*rand.Rand, batchRNGs)
	for r := 0; r < 50; r++ {
		for k := range rngs {
			rngs[k] = stats.NewTrialRand(derive(c.seed, int64(r), int64(k)))
		}
		t0 := time.Now()
		fi.FirstFaultBatch(hm, hz, rngs, g.Queries)
		runs = append(runs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	res.put("fi.first_fault_batch_us", median(runs), len(runs))
	return nil
}

// evaluate runs mc.Run once on each cell, from a collected heap, and
// returns the wall time, allocations and allocated bytes of the pass.
func evaluate(sys *core.System, spec server.JobSpec, cells []mc.Cell, trials int) (time.Duration, float64, float64, error) {
	runtime.GC()
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for _, c := range cells {
		s := mc.Spec{
			System: sys, Bench: c.Bench, Model: c.Model, Trials: trials, Seed: spec.Seed,
			InputSeed: spec.InputSeed, WatchdogFactor: spec.WatchdogFactor, Workers: poolWorkers,
		}
		if _, err := mc.Run(s, c.Model.FreqMHz); err != nil {
			return 0, 0, 0, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&z)
	return el, float64(z.Mallocs - a.Mallocs), float64(z.TotalAlloc - a.TotalAlloc), nil
}

// cellRuns evaluates cells alone with mc.Run, counting allocations: the
// workload's faulting cells once each (their caches are warm), then the
// batched checksum point and a fault-free median point, each warmed by
// one evaluation and reported as the median of cellRepeats more.
func cellRuns(sys *core.System, spec server.JobSpec, faulting []mc.Cell, res *childResult) error {
	d, allocs, alloced, err := evaluate(sys, spec, faulting, spec.Trials)
	if err != nil {
		return err
	}
	n := float64(len(faulting))
	res.put("mc.cell_faulting_ms", ms(d)/n, len(faulting))
	res.put("mc.allocs_per_trial", allocs/(n*float64(spec.Trials)), len(faulting))
	res.put("mc.bytes_per_trial", alloced/(n*float64(spec.Trials)), len(faulting))

	fixed := func(b *bench.Benchmark, mhz float64) (time.Duration, float64, float64, error) {
		cell := []mc.Cell{{Bench: b, Model: core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, FreqMHz: mhz, Profile: b.Profile}}}
		if _, _, _, err := evaluate(sys, spec, cell, fixedProbeTrials); err != nil {
			return 0, 0, 0, err
		}
		var durs, allocs, alloced []float64
		for r := 0; r < cellRepeats; r++ {
			d, a, z, err := evaluate(sys, spec, cell, fixedProbeTrials)
			if err != nil {
				return 0, 0, 0, err
			}
			durs, allocs, alloced = append(durs, float64(d)), append(allocs, a), append(alloced, z)
		}
		return time.Duration(median(durs)), median(allocs), median(alloced), nil
	}
	if _, allocs, alloced, err = fixed(bench.Checksum(), batchPointMHz); err != nil {
		return err
	}
	res.put("mc.batch_point_allocs", allocs, cellRepeats)
	res.put("mc.batch_point_bytes", alloced, cellRepeats)
	if d, _, _, err = fixed(bench.Median(), faultFreeMHz); err != nil {
		return err
	}
	res.put("mc.cell_faultfree_ms", ms(d), cellRepeats)
	return nil
}

// quality times each benchmark's quality extractor on its golden output
// with one bit flipped, as a faulted trial is scored.
func quality(benches []*bench.Benchmark, goldens map[string]*core.Golden, inputSeed int64, res *childResult) error {
	var per []float64
	for _, b := range benches {
		want := goldens[b.Name].Want
		got := append([]uint32(nil), want...)
		got[len(got)/2] ^= 1 << 3
		q := b.QualityAt(inputSeed)
		t0 := time.Now()
		for i := 0; i < qualityCalls; i++ {
			q(got, want)
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/qualityCalls)
	}
	total := 0.0
	for _, x := range per {
		total += x
	}
	res.put("bench.quality_us", total/float64(len(per)), qualityCalls*len(per))
	return nil
}

// artifactIO puts the grid's cell blobs and golden traces into a fresh
// store and reads every one back.
func artifactIO(dir string, results []mc.CellResult, goldens map[string]*core.Golden, res *childResult) error {
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	type blob struct {
		kind, key string
		payload   []byte
	}
	var blobs []blob
	for i, r := range results {
		p, err := artifact.EncodeGob(r.Point)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob{artifact.KindGridCell, fmt.Sprintf("probe-cell-%d", i), p})
	}
	for name, g := range goldens {
		p, err := cpu.EncodeTrace(g.Trace)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob{artifact.KindGoldenTrace, "probe-trace-" + name, p})
	}
	var puts, gets []time.Duration
	written := 0
	for _, b := range blobs {
		d, err := timed(func() error { return st.Put(b.kind, b.key, b.payload) })
		if err != nil {
			return err
		}
		puts = append(puts, d)
		written += len(b.payload)
	}
	for _, b := range blobs {
		d, err := timed(func() error {
			_, _, err := st.Get(b.kind, b.key)
			return err
		})
		if err != nil {
			return err
		}
		gets = append(gets, d)
	}
	s := st.Stats()
	res.put("artifact.put_ms", summarize(puts).P50ms, len(puts))
	res.put("artifact.puts", float64(s.Puts), 1)
	res.put("artifact.bytes_written", float64(written), 1)
	res.put("artifact.get_ms", summarize(gets).P50ms, len(gets))
	res.put("artifact.hit_ratio", float64(s.Hits)/float64(s.Hits+s.Misses), len(gets))
	return nil
}

// reportCSV times writing the grid's result document as CSV to a file.
func reportCSV(path string, seed int64, results []mc.CellResult, res *childResult) error {
	var runs []float64
	for r := 0; r < 20; r++ {
		d, err := timed(func() error { return report.WriteFile(path, nil, "csv", resultDoc("sweep", seed, results)) })
		if err != nil {
			return err
		}
		runs = append(runs, ms(d))
	}
	res.put("report.csv_ms", median(runs), len(runs))
	return nil
}

// serverProbe submits the workload's grid to an in-process fisimd over
// the warm System twice — one execution, one dedup — and derives the
// server layer's metrics from the spans.
func serverProbe(sys *core.System, spec server.JobSpec, res *childResult) error {
	svc, err := startService(sys, nil)
	if err != nil {
		return err
	}
	defer svc.close()
	ph := &phase{tag: "probe", seed: spec.Seed, tr: newTracer()}
	s0 := svc.mgr.Stats()
	for i := 0; i < 2; i++ {
		o := svc.job(svc.clients[0], spec, ph.tr, int64(i))
		if o.err != nil {
			return o.err
		}
		ph.record(o)
	}
	serverLayers(ph, s0, svc.mgr.Stats(), res)
	return nil
}

// clusterProbe runs the workload's grid once through a coordinator and
// two loopback workers sharing the warm System.
func clusterProbe(c config, sys *core.System, spec server.JobSpec, res *childResult) error {
	rig, err := startCluster(core.New(c.core()), []*core.System{sys, sys})
	if err != nil {
		return err
	}
	defer rig.close()
	ph := &phase{tag: "probe", seed: spec.Seed, tr: newTracer()}
	s0 := rig.coord.ClusterStats()
	o := rig.grid(ph.tr, 0, spec)
	if o.err != nil {
		return o.err
	}
	clusterLayers(ph, s0, rig.coord.ClusterStats(), res)
	return nil
}
