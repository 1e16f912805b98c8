// Package mc is the Monte-Carlo experiment harness: it runs a benchmark
// under a fault-injection model at one operating point for many trials
// (the paper uses at least 100 per data point, 200 for Fig. 5), sweeps
// frequency ranges, and aggregates the paper's four application-level
// metrics: probability to finish, probability to be correct, fault
// injection rate (FIs per kCycle of kernel execution), and output error
// of the runs that finished.
//
// Experiments run on a grid engine: a Grid enumerates cells over any
// combination of benchmark, model kind, supply voltage, noise sigma,
// operand profile and frequency, and every (cell, trial) pair of the
// whole grid is a work item drawn from one shared worker pool, so even
// sparse grids saturate all cores. Cells resolve on up to Workers
// resolver goroutines, each committing its cell straight into the
// engine, which streams cells into the pool in enumeration order; a
// run starts no goroutines but those resolvers and its trial workers.
// Fault models are built once per cell spec via the core.System model
// cache, and all cells of one benchmark share one golden execution
// context. Because each trial derives its RNG from SubSeed(Seed,
// trial) and results are aggregated in trial-index order, neither the
// schedule nor the surrounding grid has any effect on a cell's
// numbers: a cell is bit-identical whether it is evaluated alone
// (Run), inside a frequency sweep (Sweep — the single-axis grid), or
// inside an arbitrary multi-axis grid. With an attached artifact
// store, completed cells checkpoint to disk and a resumed grid loads
// them instead of recomputing (see Grid).
//
// A cell's execution path follows from its inputs alone. Trials with
// fixed inputs, whose watchdog budget admits the golden run, run
// batched first-fault sampling (Spec.Mode = ModeAuto, the default):
// the per-query injection probability of the cell's model is
// marginalized over the noise distribution once per (golden trace,
// model) into a prefix log-survival array (core.System.Hazard), and
// each trial window draws every trial's first-fault query index in one
// order-statistics pass over it (fi.FirstFaultBatch). Fault-free
// trials — the overwhelming majority below the point of first failure
// — complete immediately with the shared golden outcome, turning the
// dominant Monte-Carlo cost from O(cycles x RNG draws) into O(faults).
// Faulting trials draw the corrupted capture conditioned on injection
// (fi.HazardModel.SampleAt) and execute grouped by fork point: a walker
// core restores each checkpoint image once, golden-steps to the
// successive fork queries (cpu.RunToQuery), and every trial forks a
// copy-on-write core from it (CPU.ForkFrom) over a cloned memory.
// Results are deterministic per (Seed, trial index).
//
// Every other cell — per-trial inputs (no shared golden run), a
// watchdog below the golden cycle count, or Spec.Mode = ModeFull —
// runs full ISS execution from the reset vector for every trial, which
// consumes the exact per-cycle injector RNG stream. The two paths draw
// the same law through different RNG streams: they agree statistically,
// not bit for bit. The test suite keeps the golden-trace replay scan,
// the per-trial first-fault path, the point-serial sweep and the serial
// resolver as oracles: batched sampling is bit-identical to the
// per-trial first-fault oracle, full execution to the scan oracle, and
// both to the point-serial oracle of their law.
//
// Optionally, trial allocation is adaptive (TrialsMin/TrialsMax): a
// point starts with TrialsMin trials and grows in TrialsMin batches
// until the Wilson confidence interval on its correct proportion either
// clears or excludes 100% - correctEps, or TrialsMax is reached. Points
// that are obviously clean or obviously broken stop early; the trial
// budget concentrates on the decision boundary around the point of
// first failure. Batch boundaries are fixed in trial-index order, so
// adaptive results are also schedule-independent.
//
// In the dependency graph, mc sits on core/bench/cpu/fi/stats and is
// the execution engine for everything above it: the experiments
// runners, the cmd tools, and the fisimd service layer
// (internal/server), which submits grids with a cancellation context
// (Grid.RunContext) and observes them through Spec.Progress.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fi"
	"repro/internal/mem"
	"repro/internal/stats"
)

func newMem() *mem.Memory { return mem.New() }

// Mode selects the trial estimator.
type Mode uint8

const (
	// ModeAuto (the default) runs batched first-fault sampling wherever
	// a shared golden trace applies (fixed benchmark inputs, watchdog at
	// or above the golden cycle count) and full execution elsewhere.
	ModeAuto Mode = iota
	// ModeFull forces full ISS execution for every trial: the exact
	// per-cycle RNG stream, statistically equivalent to — but not
	// bit-identical with — ModeAuto.
	ModeFull
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeFull {
		return "full"
	}
	return "auto"
}

// ParseMode maps the user-facing spelling of a trial path (CLI -mode
// flags, server job specs) to its Mode. The empty string selects
// ModeAuto. The historical spellings stay accepted as aliases of the
// mode whose results they always matched bit for bit: "first-fault"
// and "firstfault" (per-trial first-fault sampling) select ModeAuto,
// "scan" and "replay" (the golden-trace replay scan) select ModeFull.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto", "first-fault", "firstfault":
		return ModeAuto, nil
	case "full", "scan", "replay":
		return ModeFull, nil
	}
	return ModeAuto, fmt.Errorf("mc: unknown trial mode %q (want auto or full; first-fault and scan are aliases)", s)
}

// Spec describes one experiment configuration (everything but the
// frequency, which the sweep varies).
type Spec struct {
	System *core.System
	Bench  *bench.Benchmark
	Model  core.ModelSpec // FreqMHz is overridden per point
	// Trials per data point (default 100). Ignored when TrialsMax
	// enables adaptive allocation.
	Trials int
	// TrialsMax > 0 enables adaptive trial allocation: each point runs
	// batches of TrialsMin trials (default 25) until the Wilson interval
	// on its correct proportion decides the point is clearly at or
	// clearly below 100% correct, or TrialsMax trials have run.
	TrialsMin int
	TrialsMax int
	// Seed drives all trial randomness (noise, injection, per-trial
	// operands); every (seed, trial index) pair is reproducible.
	Seed int64
	// Mode selects the trial estimator: batched first-fault sampling
	// where a shared golden trace applies (ModeAuto, the default) or
	// full ISS execution for every trial (ModeFull). See the package
	// comment for when each applies.
	Mode Mode
	// InputSeed fixes the benchmark's input data.
	InputSeed int64
	// WatchdogFactor bounds a faulty run at this multiple of the
	// fault-free cycle count (default 4): the infinite-loop detection
	// of the paper's ISS.
	WatchdogFactor float64
	// Workers limits parallelism (default NumCPU).
	Workers int
	// Progress, when non-nil, receives a snapshot after every completed
	// trial. Calls are serialized and in snapshot order (the engine
	// holds its scheduling lock while calling), so the callback must be
	// cheap and must not block on the sweep; wrap a progress.Reporter
	// for throttled terminal output.
	Progress func(Progress)
}

func (s Spec) withDefaults() Spec {
	if s.Trials <= 0 {
		s.Trials = 100
	}
	if s.TrialsMax > 0 {
		if s.TrialsMin <= 0 {
			s.TrialsMin = 25
		}
		if s.TrialsMin > s.TrialsMax {
			s.TrialsMin = s.TrialsMax
		}
	}
	if s.WatchdogFactor <= 0 {
		s.WatchdogFactor = 4
	}
	if s.Workers <= 0 {
		s.Workers = runtime.NumCPU()
	}
	if s.InputSeed == 0 {
		s.InputSeed = DefaultInputSeed
	}
	return s
}

// The adaptive decision rule: a point stops once the Wilson interval
// (normal quantile wilsonZ) on its correct proportion lies entirely
// above or entirely below 1 - correctEps.
const (
	wilsonZ    = stats.WilsonZ95
	correctEps = 0.05
)

// DefaultInputSeed is the benchmark input seed a zero Spec.InputSeed
// resolves to; exported so downstream consumers of grid results (the
// mitigation evaluator) can name the same inputs a defaulted grid used.
const DefaultInputSeed int64 = 42

// adaptive reports whether the spec (after withDefaults) uses adaptive
// trial allocation.
func (s Spec) adaptive() bool { return s.TrialsMax > 0 }

// replayableFor reports whether first-fault sampling over a shared
// golden trace can serve the given benchmark under this spec: inputs
// must be fixed (one shared golden run) and full execution must not be
// forced.
func (s Spec) replayableFor(b *bench.Benchmark) bool {
	return s.Mode != ModeFull && !b.PerTrialInputs
}

// batchedFor reports whether batched first-fault sampling serves the
// benchmark's cells: a replayable benchmark whose watchdog budget (the
// golden cycle count scaled by WatchdogFactor) admits the fault-free
// run itself. It is the one trial-path decision: newBenchCtx keeps the
// golden trace exactly when it holds, and cellKey spells it as the
// cell's path class.
func (s Spec) batchedFor(b *bench.Benchmark) bool {
	return s.replayableFor(b) && s.WatchdogFactor >= 1
}

// Progress is a snapshot of sweep-engine progress. Trial totals grow
// while adaptive points extend their budgets.
type Progress struct {
	DoneTrials  int
	TotalTrials int
	DonePoints  int
	TotalPoints int
}

// Point aggregates one (configuration, frequency) data point.
//
// The Quality* fields summarize the application-level quality
// distribution over all trials of the point: every finished trial is
// scored by the benchmark's quality extractor (bench.QualityFunc —
// kmeans distortion ratio, matmult output SNR, median exactness,
// dijkstra path-cost accuracy, bit-exactness otherwise; 1.0 = as good
// as golden), and non-finished trials score 0. QualityP50/QualityP99
// are tail guarantees — the quality met by at least 50% / 99% of
// trials — and QualityLo/QualityHi bound the mean with a Wilson-style
// 95% interval (stats.WilsonFrac), which is what the
// statistical-equivalence tests compare across trial paths.
type Point struct {
	FreqMHz      float64
	Trials       int     // trials actually run (varies under adaptive allocation)
	FinishedPct  float64 // runs that exited cleanly
	CorrectPct   float64 // runs with bit-exact output
	FIRate       float64 // endpoint violations per kernel kCycle (all runs)
	OutputErr    float64 // mean metric over finished runs (0 if none finished)
	OutputErrAll float64 // mean metric with non-finished runs counted as 100%
	KernelCycles float64 // mean kernel cycles of finished runs

	QualityMean float64 // mean quality over all trials (non-finished = 0)
	QualityP50  float64 // quality met by at least 50% of trials
	QualityP99  float64 // quality met by at least 99% of trials
	QualityLo   float64 // Wilson-style 95% lower bound on the mean quality
	QualityHi   float64 // Wilson-style 95% upper bound on the mean quality
}

// trialResult is one trial's raw outcome, indexed by trial number so
// aggregation order is independent of completion order.
type trialResult struct {
	finished, correct bool
	fiBits            uint64
	kernelCycles      uint64
	metric            float64
	quality           float64
	err               error
}

// benchCtx is the per-benchmark execution context shared by every grid
// cell of that benchmark: the assembled program and golden outputs (nil
// when the benchmark regenerates inputs per trial), the watchdog
// budget, and — on the first-fault path — the recorded golden trace
// with the fault-free trial outcome.
type benchCtx struct {
	bench    *bench.Benchmark
	prog     *asm.Program
	want     []uint32
	watchdog uint64
	golden   *core.Golden
	metric0  float64
	// qual scores a finished trial's application-level quality (bound to
	// the spec's input seed); quality0 is the fault-free score — exactly
	// 1.0 by the extractor contract (bit-exact outputs score 1.0), kept
	// as a field so the fault-free short-circuit and the full path stay
	// bit-identical by construction.
	qual     bench.QualityFunc
	quality0 float64
}

// qualityDisabled suppresses per-trial quality scoring, reverting
// trials to the pre-quality boolean verdict (quality := correct). It
// exists only for the overhead benchmarks in quality_bench_test.go,
// which pin the quality path's cost against the boolean baseline; it
// must never be set outside those benchmarks.
var qualityDisabled bool

// newBenchCtx runs (or fetches from the system caches) the one golden
// execution the benchmark's cells share: neither the program nor the
// watchdog depends on the operating point. PerTrialInputs benchmarks
// rebuild inputs per trial and use the golden run only to size the
// watchdog, as do all benchmarks under ModeFull. Replayable benchmarks
// take the recorded (and cached) golden trace instead, so repeated
// grids over one benchmark share a single golden execution.
func newBenchCtx(s Spec, b *bench.Benchmark) (*benchCtx, error) {
	ctx := &benchCtx{bench: b, qual: b.QualityAt(s.InputSeed)}
	if s.replayableFor(b) {
		g, err := s.System.Golden(b, s.InputSeed)
		if err != nil {
			return nil, err
		}
		ctx.prog, ctx.want = g.Prog, g.Want
		ctx.watchdog = uint64(float64(g.Trace.Cycles) * s.WatchdogFactor)
		if s.batchedFor(b) {
			ctx.golden = g
			ctx.metric0 = b.Metric(g.Want, g.Want)
			ctx.quality0 = ctx.qual(g.Want, g.Want)
		}
		// Otherwise the budget is below the golden cycle count and would
		// watchdog even fault-free trials: trials run the full path, but
		// the recorded program, outputs and cycle count still serve.
	} else {
		prog, want, goldenCycles, err := s.System.GoldenRun(b, s.InputSeed)
		if err != nil {
			return nil, err
		}
		if !b.PerTrialInputs {
			ctx.prog, ctx.want = prog, want
		}
		ctx.watchdog = uint64(float64(goldenCycles) * s.WatchdogFactor)
	}
	return ctx, nil
}

// pointState tracks one grid cell's trials inside the engine. next,
// completed, target and done are guarded by the engine mutex.
type pointState struct {
	cell  Cell
	ctx   *benchCtx
	model fi.Model
	// hazModel/hazard drive batched first-fault sampling; nil when the
	// cell runs full execution instead.
	hazModel  fi.HazardModel
	hazard    *fi.Hazard
	slot      int // the cell's index in the stream and in engine.results
	results   []trialResult
	next      int  // next trial index to hand out
	completed int  // trials finished
	target    int  // current decision horizon (batch end)
	done      bool // no further trials will be scheduled

	// Batched first-fault scheduling (cells with a hazard table).
	// Instead of single-trial items, the cell hands out one planning
	// item per adaptive window — which draws every trial's first-fault
	// query in one order-statistics pass, completes the fault-free
	// trials with the shared golden outcome, and splits the faulting
	// remainder into fork-sorted chunks — and then one item per chunk,
	// each walking a shared golden prefix and forking per trial.
	planned  int           // trial indices below this have been planned
	planning bool          // a planning item is in flight
	pending  []*trialChunk // planned chunks not yet handed out
}

// plannedTrial is one faulting trial of a planned batch: its trial
// index, its RNG (already advanced past its first-fault draws), and its
// fork point.
type plannedTrial struct {
	ti   int
	rng  *stats.TrialRand
	fork fi.Fork
}

// trialChunk is a contiguous run of fork-sorted faulting trials that
// one worker executes by walking a single shared golden prefix: the
// checkpoint image before the first fork is decoded once, the walker
// advances monotonically (fork points are sorted), and every trial
// forks off a copy-on-write clone of the walker state.
type trialChunk struct {
	trials []plannedTrial
}

// maxChunk caps chunk length so adaptive cells with many faulting
// trials still spread across workers and cancellation latency stays
// bounded; the schedule has no effect on results either way.
const maxChunk = 64

// workItem is one unit handed out by the engine scheduler: a single
// full-execution trial, a planning pass over a batched window, or a
// chunk of planned faulting trials. It carries the pointState pointer
// itself — e.pts grows while cells stream in, so workers must not index
// it outside the engine mutex.
type workItem struct {
	p                *pointState
	ti               int
	plan             bool
	planFrom, planTo int
	chunk            *trialChunk
}

// engine is the grid-level scheduler: one shared pool of workers pulls
// (cell, trial) items across all cells of a grid, and adaptive cells
// extend their own targets at batch boundaries.
//
// The engine owns the grid's cell stream: resolvers claim cells from
// it and commit them back (see resolveAll and commit), and cells join
// the trial pool in enumeration order as they land, so trials for
// early cells overlap resolution of later ones. The stream seals once
// every cell is in (or a cell failed to resolve); only then may the
// workers retire once every point is done.
type engine struct {
	s     Spec
	cells *artifact.Cache[string, Point] // closed cells checkpoint here
	emit  func(pos int, c CellResult)    // optional; see Grid.RunCells

	maxTrials int // per-point result capacity (adaptive ceiling)
	initial   int // per-point initial target (first batch)

	stream    []Cell         // the cells to run, in enumeration order
	resolvers sync.WaitGroup // the resolver pool of resolveAll
	results   []CellResult   // one slot per stream cell, one writer at a time

	mu          sync.Mutex
	cond        *sync.Cond
	slots       []*resolvedCell // resolved cells awaiting their turn
	claimed     int             // stream cells handed to resolvers
	committed   int             // stream cells streamed in (the valid prefix)
	cellErr     error           // the resolution error that ended the stream
	pts         []*pointState   // the live cells, in stream order
	sealed      bool            // no further cells will be committed
	err         error
	doneTrials  int
	totalTrials int
	donePoints  int
}

func newEngine(s Spec, store *artifact.Store, cells []Cell) *engine {
	e := &engine{
		s: s, cells: CellCache(store), maxTrials: s.Trials, initial: s.Trials,
		stream: cells, slots: make([]*resolvedCell, len(cells)), sealed: len(cells) == 0,
		results: make([]CellResult, len(cells)),
	}
	e.cond = sync.NewCond(&e.mu)
	if s.adaptive() {
		e.maxTrials = s.TrialsMax
		e.initial = s.TrialsMin
	}
	return e
}

// abort ends the run with err unless it already ended with an error,
// and wakes every parked worker.
func (e *engine) abort(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// take hands out the next work item, blocking while all points are
// between batches (or waiting on a planning pass, or while the
// resolvers have not yet committed more cells). It returns false when
// the sweep is complete (all streamed points done and the stream
// sealed) or aborted.
func (e *engine) take() (workItem, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.err != nil {
			return workItem{}, false
		}
		allDone := true
		for _, p := range e.pts {
			if p.hazard != nil {
				if len(p.pending) > 0 {
					ch := p.pending[0]
					p.pending = p.pending[1:]
					return workItem{p: p, chunk: ch}, true
				}
				if !p.planning && p.planned < p.target {
					p.planning = true
					return workItem{p: p, plan: true, planFrom: p.planned, planTo: p.target}, true
				}
				if !p.done {
					allDone = false
				}
				continue
			}
			if p.next < p.target {
				ti := p.next
				p.next++
				return workItem{p: p, ti: ti}, true
			}
			if !p.done {
				allDone = false
			}
		}
		if allDone && e.sealed {
			return workItem{}, false
		}
		e.cond.Wait()
	}
}

// aborted reports whether the engine has hit an error (including
// cancellation); chunk runners poll it between trials so a cancelled
// grid stops at trial granularity, not chunk granularity.
func (e *engine) aborted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err != nil
}

// decide evaluates a point whose current batch just completed and
// reports whether it is finished. It runs under the engine mutex and
// depends only on the trial-index prefix results[0:target], so the
// decision sequence is identical for any worker schedule.
func (e *engine) decide(p *pointState) bool {
	if p.target >= len(p.results) {
		return true
	}
	if !e.s.adaptive() {
		return true
	}
	correct := 0
	for i := 0; i < p.target; i++ {
		if p.results[i].correct {
			correct++
		}
	}
	lo, hi := stats.Wilson(correct, p.target, wilsonZ)
	boundary := 1 - correctEps
	if lo >= boundary || hi < boundary {
		return true
	}
	return false
}

// complete records one finished trial and, at batch boundaries, either
// closes the point or extends its target by another batch. A closed
// point is emitted (emitCell) outside the lock.
func (e *engine) complete(p *pointState, ti int, r trialResult) {
	e.mu.Lock()
	p.results[ti] = r
	p.completed++
	e.doneTrials++
	if r.err != nil {
		// Any trial error fails the run, even one after a cancellation
		// that leaves the grid whole (see run).
		e.err = r.err
	}
	closed, live := false, false
	if !p.done && p.completed == p.target {
		// An aborted grid never closes a point early: a point decide
		// would extend stays open (and unscheduled, since take() stops on
		// e.err), which is what lets run() distinguish a cancellation
		// that truncated the grid from one that landed after every cell
		// had already closed.
		if e.decide(p) {
			p.done = true
			closed, live = true, e.err == nil
			e.donePoints++
		} else if e.err == nil {
			grow := e.s.TrialsMin
			if p.target+grow > len(p.results) {
				grow = len(p.results) - p.target
			}
			p.target += grow
			e.totalTrials += grow
		}
	}
	e.cond.Broadcast()
	// Deliver the snapshot under the lock: callers are promised ordered,
	// non-concurrent callbacks (an out-of-order DoneTrials would make a
	// progress.Reporter misread the regression as a new phase and reset
	// its rate clock mid-sweep).
	if cb := e.s.Progress; cb != nil {
		cb(Progress{
			DoneTrials:  e.doneTrials,
			TotalTrials: e.totalTrials,
			DonePoints:  e.donePoints,
			TotalPoints: len(e.pts),
		})
	}
	e.mu.Unlock()
	if closed {
		// The results prefix is immutable once the point is done. An
		// aggregation error is a failed trial, which already set e.err.
		if pt, err := aggregate(p.cell.Model.FreqMHz, p.results[:p.target]); err == nil {
			e.results[p.slot].Point = pt
			if live {
				e.emitCell(p.slot)
			}
		}
	}
}

// emitCell is the one exit of a cell whose Point is final, taken outside
// the lock while the run is live: a computed cell checkpoints (a failed
// write costs a recomputation on resume), then emit receives the cell.
func (e *engine) emitCell(pos int) {
	c := e.results[pos]
	if !c.Cached {
		e.cells.Save(c.Key, c.Point)
	}
	if e.emit != nil {
		e.emit(pos, c)
	}
}

// plan decides a whole window of a batched cell's trials in one pass:
// every trial's first-fault query index is drawn from the shared prefix
// log-survival array by one order-statistics sweep (fi.FirstFaultBatch,
// bit-identical per trial to fi.FirstFault over the same RNG streams),
// fault-free trials complete immediately with the shared golden
// outcome, and the faulting remainder — sorted by fork point so trials
// restoring the same checkpoint are adjacent — is split into contiguous
// chunks for the workers. Chunk geometry depends only on (window,
// Workers), never on the schedule, and trials are independent, so
// results are invariant under both.
func (e *engine) plan(p *pointState, from, to int) {
	ctx := p.ctx
	trs := make([]*stats.TrialRand, to-from)
	rngs := make([]*rand.Rand, to-from)
	for i := range trs {
		trs[i] = stats.NewTrial(stats.SubSeed(e.s.Seed, from+i))
		rngs[i] = trs[i].Rand
	}
	forks := fi.FirstFaultBatch(p.hazModel, p.hazard, rngs, ctx.golden.Queries)

	faulted := make([]bool, to-from)
	for _, bf := range forks {
		faulted[bf.Trial] = true
	}
	var chunks []*trialChunk
	if len(forks) > 0 {
		cs := (len(forks) + e.s.Workers - 1) / e.s.Workers
		if cs > maxChunk {
			cs = maxChunk
		}
		for start := 0; start < len(forks); start += cs {
			end := start + cs
			if end > len(forks) {
				end = len(forks)
			}
			ch := &trialChunk{trials: make([]plannedTrial, 0, end-start)}
			for _, bf := range forks[start:end] {
				ch.trials = append(ch.trials, plannedTrial{
					ti: from + bf.Trial, rng: trs[bf.Trial], fork: bf.Fork,
				})
			}
			chunks = append(chunks, ch)
		}
	}

	// Install the chunks before completing the clean trials: a clean
	// completion can close the window (all faulting chunks already done
	// is impossible here, but an adaptive extension is not), and waiting
	// workers must be able to claim the chunks either way.
	e.mu.Lock()
	p.pending = append(p.pending, chunks...)
	p.planning = false
	p.planned = to
	e.cond.Broadcast()
	e.mu.Unlock()

	clean := trialResult{
		finished: true, correct: true,
		kernelCycles: ctx.golden.Trace.KernelCycles,
		metric:       ctx.metric0,
		quality:      ctx.quality0,
	}
	for i := from; i < to; i++ {
		if !faulted[i-from] {
			e.complete(p, i, clean)
		}
	}
}

// runChunk executes one chunk of planned faulting trials over a shared
// golden prefix: the checkpoint before the chunk's first fork is
// restored (and its text image decoded) once into the worker's walker
// core, and the walker moves forward to each fork point in order (fork
// points are sorted, so it only ever advances). When the checkpoint
// before the next fork lies ahead of the walker, the walker jumps there
// (CPU.FastForward: the golden store-log entries in between, then the
// checkpoint's registers and counters) and golden-steps only the rest
// of the way (RunToQuery), so each trial pays for at most one
// checkpoint interval of stepping. Each trial runs a copy-on-write
// fork of the walker (CPU.ForkFrom) over the worker's trial memory.
// The fork executes query q itself with the planned corrupted capture
// and binds the trial injector directly for every later query. Forking
// at query q is bit-identical to independently restoring the nearest
// checkpoint and replaying golden values up to q (pinned by cpu's
// TestForkMatchesRestore and FuzzWalkerFastForward), so every trial's
// outcome matches an independent per-trial restore exactly.
func (e *engine) runChunk(m, wm *mem.Memory, p *pointState, ch *trialChunk) {
	s := e.s
	ctx := p.ctx
	tr := ctx.golden.Trace
	wm.Reset()
	walker := cpu.New(wm, nil, s.System.Cfg.CPU)
	if err := walker.Restore(ctx.golden.Prog, tr, tr.CheckpointBefore(ch.trials[0].fork.Query)); err != nil {
		for _, t := range ch.trials {
			e.complete(p, t.ti, trialResult{err: err})
		}
		return
	}
	walker.SetWatchdog(ctx.watchdog)
	var fc cpu.CPU
	for i, t := range ch.trials {
		if i > 0 && e.aborted() {
			// Cancelled mid-chunk: the remaining trials stay incomplete,
			// which keeps the cell open and lets run() report the abort.
			return
		}
		if cp := tr.CheckpointBefore(t.fork.Query); cp.Cycles > walker.Cycles {
			if err := walker.FastForward(tr, cp); err != nil {
				for _, t := range ch.trials[i:] {
					e.complete(p, t.ti, trialResult{err: err})
				}
				return
			}
		}
		if st := walker.RunToQuery(uint64(t.fork.Query)); st != cpu.StatusRunning {
			e.complete(p, t.ti, trialResult{err: fmt.Errorf(
				"mc: golden walker ended %v before query %d", st, t.fork.Query)})
			continue
		}
		m.CloneFrom(wm)
		fc.ForkFrom(walker, m, p.hazModel.NewTrial(t.rng), t.fork.Out, t.fork.OutFlag, t.fork.Flipped)
		st := fc.Run()
		e.complete(p, t.ti, e.finishTrial(ctx, ctx.qual, &fc, m, ctx.golden.Prog, ctx.golden.Want, st))
	}
}

// runTrialFull executes one fault-injected trial from the reset vector,
// consuming the injector's exact per-cycle RNG stream.
func (e *engine) runTrialFull(m *mem.Memory, p *pointState, ti int) trialResult {
	s := e.s
	ctx := p.ctx
	var r trialResult
	rng := stats.NewTrial(stats.SubSeed(s.Seed, ti))
	prog, want := ctx.prog, ctx.want
	qual := ctx.qual
	if ctx.bench.PerTrialInputs {
		src, w2, err := ctx.bench.Build(stats.SubSeed(s.InputSeed, ti))
		if err != nil {
			r.err = err
			return r
		}
		p2, err := asm.Assemble(src)
		if err != nil {
			r.err = err
			return r
		}
		prog, want = p2, w2
		qual = ctx.bench.QualityAt(stats.SubSeed(s.InputSeed, ti))
	}
	m.Reset()
	c := cpu.New(m, p.model.NewTrial(rng), s.System.Cfg.CPU)
	if err := c.Load(prog); err != nil {
		r.err = err
		return r
	}
	c.SetWatchdog(ctx.watchdog)
	st := c.Run()
	return e.finishTrial(ctx, qual, c, m, prog, want, st)
}

// finishTrial folds a completed simulation into a trialResult; shared by
// the full and forked paths. qual is the trial's quality
// extractor — ctx.qual everywhere except PerTrialInputs trials, whose
// extractor is rebound to the trial's input seed. Quality scoring
// consumes no RNG, so it cannot perturb the bit-identity guarantees.
func (e *engine) finishTrial(ctx *benchCtx, qual bench.QualityFunc, c *cpu.CPU, m *mem.Memory, prog *asm.Program, want []uint32, st cpu.Status) trialResult {
	var r trialResult
	r.fiBits = c.FIBits
	r.kernelCycles = c.KernelCycles
	if st != cpu.StatusExited {
		return r
	}
	r.finished = true
	got, err := ctx.bench.Outputs(m, prog)
	if err != nil {
		// Output extraction can only fail on a broken benchmark
		// definition, not on FI.
		r.err = err
		return r
	}
	r.metric = ctx.bench.Metric(got, want)
	r.correct = true
	for i := range got {
		if got[i] != want[i] {
			r.correct = false
			break
		}
	}
	if qualityDisabled {
		if r.correct {
			r.quality = 1
		}
	} else {
		r.quality = qual(got, want)
	}
	return r
}

// run drives the worker pool to completion, joins the resolvers, and
// returns the committed cells, each emitted with its Point, together
// with the resolution error that ended the stream, if any. A cancelled
// ctx aborts the grid at trial granularity: no new (cell, trial) items
// are handed out, in-flight trials finish, and the run returns ctx's
// error — unless the stream was sealed and every cell had already
// closed when the cancellation landed, in which case the complete grid
// is returned.
func (e *engine) run(ctx context.Context) ([]CellResult, error) {
	// Parked workers wake through the abort; busy ones poll ctx below.
	stop := context.AfterFunc(ctx, func() { e.abort(ctx.Err()) })
	defer stop()
	// The pool runs at full width from the start: cells stream in while
	// workers are already up, so the total amount of work is unknown
	// here. An idle worker parks in take() until a point arrives or the
	// stream seals.
	var wg sync.WaitGroup
	for w := 0; w < e.s.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMem()
			var wm *mem.Memory // walker memory, lazily built for chunks
			for {
				// Poll ctx between items too: a hot worker could otherwise
				// race through the remaining items before the AfterFunc
				// runs, turning a mid-run cancellation into a spuriously
				// "whole" grid.
				if err := ctx.Err(); err != nil {
					e.abort(err)
					return
				}
				it, ok := e.take()
				if !ok {
					return
				}
				switch {
				case it.plan:
					e.plan(it.p, it.planFrom, it.planTo)
				case it.chunk != nil:
					if wm == nil {
						wm = newMem()
					}
					e.runChunk(m, wm, it.p, it.chunk)
				default:
					e.complete(it.p, it.ti, e.runTrialFull(m, it.p, it.ti))
				}
			}
		}()
	}
	wg.Wait()
	e.resolvers.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		// A cancellation that landed only after every cell had closed
		// aborted nothing; the grid is whole and its points are exactly
		// what an uncancelled run would have produced (decide runs before
		// the error check in complete, so no cell was closed early). An
		// unsealed stream is never whole: cells the aborted run never
		// committed are missing from it.
		whole := e.sealed && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded))
		for _, p := range e.pts {
			if !p.done {
				whole = false
				break
			}
		}
		if !whole {
			return nil, e.err
		}
	}
	return e.results[:e.committed], e.cellErr
}

// aggregate folds raw trial results (in trial-index order) into the
// paper's per-point metrics and the quality distribution summary.
// Quality sums run in trial-index order, so aggregated values inherit
// the engine's bit-identity guarantee across schedules and grid shapes.
func aggregate(fMHz float64, results []trialResult) (Point, error) {
	pt := Point{FreqMHz: fMHz, Trials: len(results)}
	var fin, cor int
	var fiBits, kCycles, kCyclesFin uint64
	var errSum, errAllSum, qSum float64
	qs := make([]float64, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return Point{}, r.err
		}
		fiBits += r.fiBits
		kCycles += r.kernelCycles
		// Non-finished trials carry the zero-value quality 0: a run the
		// watchdog killed produced nothing of application value.
		qSum += r.quality
		qs = append(qs, r.quality)
		if r.finished {
			fin++
			errSum += r.metric
			errAllSum += capPct(r.metric)
			kCyclesFin += r.kernelCycles
			if r.correct {
				cor++
			}
		} else {
			errAllSum += 100
		}
	}
	pt.FinishedPct = pct(fin, len(results))
	pt.CorrectPct = pct(cor, len(results))
	if kCycles > 0 {
		pt.FIRate = float64(fiBits) / float64(kCycles) * 1000
	}
	if fin > 0 {
		pt.OutputErr = errSum / float64(fin)
		pt.KernelCycles = float64(kCyclesFin) / float64(fin)
	}
	pt.OutputErrAll = errAllSum / float64(len(results))
	if n := len(results); n > 0 {
		pt.QualityMean = qSum / float64(n)
		sort.Float64s(qs)
		pt.QualityP50 = qualityQuantile(qs, 0.50)
		pt.QualityP99 = qualityQuantile(qs, 0.99)
		pt.QualityLo, pt.QualityHi = stats.WilsonFrac(qSum, n, stats.WilsonZ95)
	}
	return pt, nil
}

// qualityQuantile returns the quality met by at least frac of the
// trials: with qualities sorted ascending, the largest q such that at
// least ceil(frac·n) trials score q or better — a tail guarantee, so
// QualityP99 reads "99% of trials are at least this good".
func qualityQuantile(sorted []float64, frac float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := n - int(math.Ceil(frac*float64(n)))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func pct(n, total int) float64 { return float64(n) / float64(total) * 100 }

func capPct(x float64) float64 {
	if x > 100 {
		return 100
	}
	return x
}

// Run evaluates one data point at the given frequency. It is the
// single-frequency case of the sweep engine, so fixed-seed results are
// identical whether a frequency is evaluated alone or inside a sweep.
func Run(spec Spec, fMHz float64) (Point, error) {
	pts, err := Sweep(spec, []float64{fMHz})
	if err != nil {
		return Point{}, err
	}
	return pts[0], nil
}

// Sweep evaluates the configuration over a list of frequencies — the
// single-axis (frequency) grid. It returns the points of every
// frequency before the first invalid operating point together with
// that point's error.
func Sweep(spec Spec, freqs []float64) ([]Point, error) {
	pts := make([]Point, 0, len(freqs))
	if len(freqs) == 0 {
		return pts, nil
	}
	cells, err := Grid{Spec: spec, Axes: Axes{Freqs: freqs}}.Run()
	for _, c := range cells {
		pts = append(pts, c.Point)
	}
	return pts, err
}

// PoFF locates the point of first failure in a sweep: the lowest
// frequency whose point is no longer 100% correct (the paper's
// definition). It returns the frequency and true, or 0 and false when
// every point is fully correct (or the sweep is empty).
func PoFF(points []Point) (float64, bool) {
	for _, p := range points {
		if p.CorrectPct < 100 {
			return p.FreqMHz, true
		}
	}
	return 0, false
}

// GainOverSTA expresses a PoFF as percent gain over the STA limit, the
// annotation of the paper's Fig. 5/6. A PoFF below the STA limit yields
// a negative gain.
func GainOverSTA(poffMHz, staMHz float64) float64 {
	return (poffMHz - staMHz) / staMHz * 100
}
