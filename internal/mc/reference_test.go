package mc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/fi"
	"repro/internal/mem"
	"repro/internal/stats"
)

// The reference oracle: independent implementations of every way the
// engine's Points used to be computed, kept here so each differential
// test compares the production paths against code that shares neither
// their scheduler nor their caches. refRun evaluates one point strictly
// on its own — a freshly built (uncached) model, a per-point golden
// run, and a per-point worker pool of Spec.Workers goroutines — with
// one of three per-trial kernels. refSerialResolve is the
// pre-pipelining grid driver.

// refKernel selects the oracle's per-trial kernel.
type refKernel uint8

const (
	// refFull executes every trial from the reset vector: the law and
	// RNG stream of ModeFull.
	refFull refKernel = iota
	// refScan drives the trial's injector over every recorded ALU query
	// of the golden trace (fi.ScanTrace) and, at the first flip, forks
	// into full execution from the nearest checkpoint. It consumes the
	// same RNG stream as refFull, so the two are bit-identical.
	refScan
	// refFirstFault draws each trial's first-fault query on its own
	// (fi.FirstFault over a freshly built hazard table) and restores the
	// nearest checkpoint: bit-identical to the batched ModeAuto engine,
	// which draws the same streams in one order-statistics pass.
	refFirstFault
)

func (k refKernel) String() string {
	switch k {
	case refScan:
		return "scan"
	case refFirstFault:
		return "first-fault"
	}
	return "full"
}

// refSweep evaluates the frequencies strictly one point at a time with
// refRun, returning the valid prefix with the first point's error.
func refSweep(spec Spec, k refKernel, freqs []float64) ([]Point, error) {
	pts := make([]Point, 0, len(freqs))
	for _, f := range freqs {
		p, err := refRun(spec, k, f)
		if err != nil {
			return pts, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// refRun is the point-serial oracle. The golden-trace kernels (refScan,
// refFirstFault) apply where the engine's first-fault path would: fixed
// inputs and a watchdog budget that admits the golden run; elsewhere
// every kernel degenerates to refFull, exactly as the engine falls back
// to full execution. The full kernel builds its model afresh and re-runs
// the golden execution for every point (the original point-serial
// path); the golden-trace kernels take the System's cached model,
// recorded trace and hazard table, as the engine paths they replaced
// did, so the reference benchmarks measure the same work they always
// measured. Adaptive allocation runs batches of trial indices through
// the pool and asks the engine's own decide after each one, so the
// batch trajectory depends only on the trial-index prefix.
func refRun(spec Spec, k refKernel, fMHz float64) (Point, error) {
	s := spec.withDefaults()
	ms := s.Model
	ms.FreqMHz = fMHz
	if ms.Profile == nil {
		ms.Profile = s.Bench.Profile
	}
	ctx := &benchCtx{bench: s.Bench, qual: s.Bench.QualityAt(s.InputSeed)}
	p := &pointState{cell: Cell{Bench: s.Bench, Model: ms}, ctx: ctx}
	var err error
	if k == refFull || s.Bench.PerTrialInputs {
		k = refFull
		if p.model, err = s.System.NewModel(ms); err != nil {
			return Point{}, err
		}
		prog, want, goldenCycles, err := s.System.GoldenRun(s.Bench, s.InputSeed)
		if err != nil {
			return Point{}, err
		}
		if !s.Bench.PerTrialInputs {
			ctx.prog, ctx.want = prog, want
		}
		ctx.watchdog = uint64(float64(goldenCycles) * s.WatchdogFactor)
	} else {
		if p.model, err = s.System.Model(ms); err != nil {
			return Point{}, err
		}
		g, err := s.System.Golden(s.Bench, s.InputSeed)
		if err != nil {
			return Point{}, err
		}
		ctx.prog, ctx.want = g.Prog, g.Want
		ctx.watchdog = uint64(float64(g.Trace.Cycles) * s.WatchdogFactor)
		if ctx.watchdog < g.Trace.Cycles {
			k = refFull
		} else {
			ctx.golden = g
			ctx.metric0 = s.Bench.Metric(g.Want, g.Want)
			ctx.quality0 = ctx.qual(g.Want, g.Want)
		}
		if k == refFirstFault {
			hm, ok := p.model.(fi.HazardModel)
			if !ok {
				return Point{}, fmt.Errorf("reference: model %s has no marginal hazard", p.model.Name())
			}
			if p.hazard, err = s.System.Hazard(s.Bench, s.InputSeed, ms); err != nil {
				return Point{}, err
			}
			p.hazModel = hm
		}
	}

	e := newEngine(s, nil, nil)
	p.results = make([]trialResult, e.maxTrials)
	p.target = e.initial
	for from := 0; ; {
		refTrials(e, k, p, from, p.target)
		if e.decide(p) {
			break
		}
		from = p.target
		p.target += s.TrialsMin
		if p.target > len(p.results) {
			p.target = len(p.results)
		}
	}
	return aggregate(fMHz, p.results[:p.target])
}

// refTrials runs trial indices [from, to) of the point on a pool of
// Spec.Workers goroutines, each with its own trial memory.
func refTrials(e *engine, k refKernel, p *pointState, from, to int) {
	var wg sync.WaitGroup
	trialCh := make(chan int)
	for w := 0; w < e.s.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMem()
			for ti := range trialCh {
				p.results[ti] = refTrial(e, k, m, p, ti)
			}
		}()
	}
	for ti := from; ti < to; ti++ {
		trialCh <- ti
	}
	close(trialCh)
	wg.Wait()
}

// refTrial executes one trial with the selected kernel.
func refTrial(e *engine, k refKernel, m *mem.Memory, p *pointState, ti int) trialResult {
	ctx := p.ctx
	rng := stats.NewTrial(stats.SubSeed(e.s.Seed, ti))
	var inj fi.Injector
	var fork fi.Fork
	var faulted bool
	switch k {
	case refFull:
		return refTrialFull(e, m, p, ti, rng)
	case refScan:
		inj = p.model.NewTrial(rng)
		fork, faulted = fi.ScanTrace(inj, ctx.golden.Trace.Events)
	case refFirstFault:
		fork, faulted = fi.FirstFault(p.hazModel, p.hazard, rng.Rand, ctx.golden.Trace.Events)
		inj = p.hazModel.NewTrial(rng)
	}
	if !faulted {
		// Fault-free: the trial is the golden run.
		return trialResult{
			finished: true, correct: true,
			kernelCycles: ctx.golden.Trace.KernelCycles,
			metric:       ctx.metric0,
			quality:      ctx.quality0,
		}
	}
	cp := ctx.golden.Trace.CheckpointBefore(fork.Query)
	m.Reset()
	c := cpu.New(m, fi.NewForkInjector(inj, cp.EventIndex, fork), e.s.System.Cfg.CPU)
	if err := c.Restore(ctx.golden.Prog, ctx.golden.Trace, cp); err != nil {
		return trialResult{err: err}
	}
	c.SetWatchdog(ctx.watchdog)
	st := c.Run()
	return e.finishTrial(ctx, ctx.qual, c, m, ctx.golden.Prog, ctx.golden.Want, st)
}

// refTrialFull runs one trial from the reset vector, rebuilding the
// benchmark's program and outputs from the trial's own input seed when
// it has per-trial inputs.
func refTrialFull(e *engine, m *mem.Memory, p *pointState, ti int, rng *stats.TrialRand) trialResult {
	s, ctx := e.s, p.ctx
	prog, want, qual := ctx.prog, ctx.want, ctx.qual
	if s.Bench.PerTrialInputs {
		inputSeed := stats.SubSeed(s.InputSeed, ti)
		src, w, err := s.Bench.Build(inputSeed)
		if err != nil {
			return trialResult{err: err}
		}
		if prog, err = asm.Assemble(src); err != nil {
			return trialResult{err: err}
		}
		want, qual = w, s.Bench.QualityAt(inputSeed)
	}
	m.Reset()
	c := cpu.New(m, p.model.NewTrial(rng), s.System.Cfg.CPU)
	if err := c.Load(prog); err != nil {
		return trialResult{err: err}
	}
	c.SetWatchdog(ctx.watchdog)
	return e.finishTrial(ctx, qual, c, m, prog, want, c.Run())
}

// refSerialResolve is the pre-pipelining grid driver: every cell is
// resolved in enumeration order on the calling goroutine and committed
// to the engine, and the trial engine starts only after the last cell
// resolved (or the first one failed, which ends the grid with the valid
// prefix and that error).
func refSerialResolve(g Grid) ([]CellResult, error) {
	s := g.Spec.withDefaults()
	r := newResolver(s, g)
	cells := g.Cells()
	eng := newEngine(s, g.Store, cells)
	for i, c := range cells {
		rc := r.resolve(c)
		eng.commit(i, rc)
		if rc.err != nil {
			break
		}
	}
	return eng.run(context.Background())
}
