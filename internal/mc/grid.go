// The multi-axis experiment grid: declarative enumeration of cells over
// (benchmark × model kind × Vdd × sigma × operand profile × frequency),
// scheduled as one flat (cell, trial) work pool, with optional
// cell-level checkpointing to an artifact store for warm restarts.

package mc

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/memo"
)

// Axes lists the grid dimensions. An empty axis collapses to the single
// value already present in the grid's base Spec (Spec.Bench for
// Benches, the corresponding Spec.Model field for the others), so a
// Grid with only Freqs set is exactly a frequency sweep and a Grid with
// no axes at all is a single data point. A nil Profiles entry resolves
// to the cell benchmark's own operand profile, matching the sweep
// engine's historical defaulting.
type Axes struct {
	Benches  []*bench.Benchmark
	Kinds    []string // fault model kinds: "none", "A", "B", "B+", "C"
	Vdds     []float64
	Sigmas   []float64
	Profiles []dta.Profile
	Freqs    []float64
}

// withDefaults collapses empty axes onto the base spec's values.
func (a Axes) withDefaults(s Spec) Axes {
	if len(a.Benches) == 0 {
		a.Benches = []*bench.Benchmark{s.Bench}
	}
	if len(a.Kinds) == 0 {
		a.Kinds = []string{s.Model.Kind}
	}
	if len(a.Vdds) == 0 {
		a.Vdds = []float64{s.Model.Vdd}
	}
	if len(a.Sigmas) == 0 {
		a.Sigmas = []float64{s.Model.Sigma}
	}
	if len(a.Profiles) == 0 {
		a.Profiles = []dta.Profile{s.Model.Profile}
	}
	if len(a.Freqs) == 0 {
		a.Freqs = []float64{s.Model.FreqMHz}
	}
	return a
}

// FreqRange expands an inclusive [lo, hi] frequency range with the
// given step into the explicit list, absorbing float accumulation
// drift at the endpoint (repeated addition of a non-dyadic step can
// overshoot hi by ~1 ulp and silently drop the final frequency). It is
// the one expansion shared by cmd/sweep, the experiments runners and
// the server's job-spec canonicalization, so a range and its explicit
// expansion always mean the same grid. A non-positive step yields nil.
func FreqRange(lo, hi, step float64) []float64 {
	if step <= 0 {
		return nil
	}
	var out []float64
	for f := lo; f <= hi+1e-9; f += step {
		out = append(out, f)
		if f+step == f {
			// step is below float resolution at this magnitude: f can
			// never advance, so stop rather than loop forever.
			break
		}
	}
	return out
}

// Cell is one fully resolved grid coordinate: a benchmark and a
// complete model spec (operating point and profile included).
type Cell struct {
	Bench *bench.Benchmark
	Model core.ModelSpec
}

// CellResult is one evaluated grid cell under its artifact-store key.
// Cached marks cells that were loaded from the store instead of
// recomputed (grid resume).
type CellResult struct {
	Bench  string
	Model  core.ModelSpec
	Key    string
	Cached bool
	Point  Point
}

// Grid evaluates a base Spec over the cross product of its Axes. Every
// (cell, trial) pair of the whole grid is drawn from one shared worker
// pool, cells of one benchmark share one golden execution context, and
// each cell's numbers are bit-identical to evaluating that cell alone
// with Run for the same Spec.Seed (trial RNG depends only on (Seed,
// trial index), aggregation is in trial-index order).
//
// With a Store attached, every completed cell is checkpointed under a
// key derived from the system fingerprint, the spec, and the cell
// coordinate; a later Grid with Resume set loads those cells instead of
// recomputing them, so an interrupted run continues where it stopped.
type Grid struct {
	Spec Spec
	Axes Axes
	// Store, when non-nil, receives completed cells; Resume additionally
	// consults it before scheduling a cell.
	Store  *artifact.Store
	Resume bool
}

// Cells enumerates the grid's coordinates in their fixed evaluation
// order: benchmark-major, then kind, Vdd, sigma, profile, and frequency
// innermost (so a single-axis frequency grid enumerates exactly like a
// sweep). A kind-A cell whose spec leaves ProbA zero gets
// core.DefaultProbA, so its key spells the probability it runs at.
func (g Grid) Cells() []Cell {
	s := g.Spec.withDefaults()
	a := g.Axes.withDefaults(s)
	cells := make([]Cell, 0, len(a.Benches)*len(a.Kinds)*len(a.Vdds)*len(a.Sigmas)*len(a.Profiles)*len(a.Freqs))
	for _, b := range a.Benches {
		for _, kind := range a.Kinds {
			for _, vdd := range a.Vdds {
				for _, sigma := range a.Sigmas {
					for _, prof := range a.Profiles {
						for _, f := range a.Freqs {
							ms := s.Model
							ms.Kind = kind
							if kind == "A" && ms.ProbA == 0 {
								ms.ProbA = core.DefaultProbA
							}
							ms.Vdd = vdd
							ms.Sigma = sigma
							ms.FreqMHz = f
							ms.Profile = prof
							if ms.Profile == nil {
								ms.Profile = b.Profile
							}
							cells = append(cells, Cell{Bench: b, Model: ms})
						}
					}
				}
			}
		}
	}
	return cells
}

// The two hand-bumped markers at the end of every cell key. rngLaw
// names the per-trial RNG family (xoshiro256++ streams keyed by
// SubSeed): changing the family changes every sampled result, so cells
// computed under the old stdlib streams must miss. qualityClass names
// the quality-metric class: Points checkpointed before per-trial
// quality scoring existed (no Quality* fields in the gob) would decode
// with silently zero quality, so they must miss and be recomputed; bump
// it whenever an extractor's definition changes. TestCellLayoutPinned
// fails when a field of Point, Spec or core.ModelSpec changes, so that
// such a change decides on a bump here.
const (
	rngLaw       = "x1"
	qualityClass = "v1"
)

// cellKey spells out everything a cell's Point depends on: the system
// fingerprint (netlists, DTA, Vdd-delay, CPU timing), the benchmark's
// program content (System.BenchDigest, so editing a kernel invalidates
// its cells) and input seed, the resolved model spec, every
// trial-allocation parameter, and the trial path class. Workers is
// deliberately absent (the engine guarantees bit-identical results
// across schedules). Full execution has the "exact" class, the name
// cells stored under the bit-identical "scan" spelling also carry, so
// they keep hitting; first-fault sampling draws a different RNG
// stream, so its cells must not alias those. Map-valued fields (the
// operand profile) print in sorted key order, so the string is
// canonical.
func cellKey(fingerprint, benchDigest string, s Spec, c Cell) string {
	// The firstfault class is the engine's own path decision
	// (Spec.batchedFor), so a key can never name a path the cell did
	// not run, nor alias results computed under a different law.
	path := "exact"
	if s.batchedFor(c.Bench) {
		path = "firstfault"
	}
	return fmt.Sprintf("sys=%s|bench=%s|prog=%s|inputSeed=%d|model=%+v|trials=%d|tmin=%d|tmax=%d|z=%g|eps=%g|seed=%d|wf=%g|path=%s|rng=%s|q=%s",
		fingerprint, c.Bench.Name, benchDigest, s.InputSeed, c.Model,
		s.Trials, s.TrialsMin, s.TrialsMax, wilsonZ, correctEps,
		s.Seed, s.WatchdogFactor, path, rngLaw, qualityClass)
}

// CellCache returns the artifact cache of grid cells over st: a
// checkpointed cell is its aggregated Point as a gob payload, and any
// blob that does not decode is a miss. Cells are not memoized in
// memory, so only its Load and Save halves are used.
func CellCache(st *artifact.Store) *artifact.Cache[string, Point] {
	return &artifact.Cache[string, Point]{
		Store:  st,
		Kind:   artifact.KindGridCell,
		Encode: func(pt Point) ([]byte, error) { return artifact.EncodeGob(pt) },
	}
}

// decodeCell is the grid-cell decode of CellCache.Load.
func decodeCell(payload []byte) (Point, bool) {
	var pt Point
	return pt, artifact.DecodeGob(payload, &pt) == nil
}

// Run evaluates the grid. Like Sweep, an invalid operating point
// partway through the enumeration still yields the results of every
// cell before it, together with that cell's error; a trial-level error
// aborts the whole grid.
func (g Grid) Run() ([]CellResult, error) {
	return g.RunContext(context.Background())
}

// PlannedCell is one grid coordinate together with its content-addressed
// identity: the position in the canonical enumeration (Cells() order),
// the cell itself, the artifact-store key its Point checkpoints under,
// and — when the grid has a store and Resume — the checkpointed Point if
// one exists. It is the planning unit of distributed execution: a
// coordinator plans a grid once, parcels indices into leases, and merges
// remotely computed Points back by index, deduplicating duplicate
// completions by Key.
type PlannedCell struct {
	Index int
	Cell  Cell
	Key   string
	// Point is the checkpointed result loaded from the store (Resume
	// hit); nil for cells that still need computing.
	Point *Point
}

// PlanCells resolves the grid's enumeration into planned cells: every
// coordinate with its content-addressed key (always computed, store or
// not — the key is what makes results mergeable across machines), plus
// any already-checkpointed Points when the grid resumes from a store.
// Planning touches no model, golden or hazard cache; it is cheap enough
// to run on a coordinator that never executes a trial.
func (g Grid) PlanCells() ([]PlannedCell, error) {
	r := newResolver(g.Spec.withDefaults(), g)
	cells := g.Cells()
	plan := make([]PlannedCell, len(cells))
	for i, c := range cells {
		key, pt, err := r.lookup(c)
		if err != nil {
			return nil, err
		}
		plan[i] = PlannedCell{Index: i, Cell: c, Key: key, Point: pt}
	}
	return plan, nil
}

// RunCells evaluates only the selected cells of the grid — indices into
// the canonical Cells() enumeration — returning their results in the
// given order. Each cell's Point is bit-identical to the same cell
// inside a full-grid run (trial RNG depends only on (Seed, trial
// index), never on the surrounding grid), which is what lets a cluster
// worker execute an arbitrary leased subset and a coordinator merge the
// pieces into exactly the result a single-node run would produce.
//
// emit, when non-nil, receives each cell once, the moment its Point is
// final (a computed cell after its checkpoint is written), with pos its
// index into indices; calls may be concurrent and all end before
// RunCells returns. A cell that closes after the run aborted is not
// emitted.
func (g Grid) RunCells(ctx context.Context, indices []int, emit func(pos int, c CellResult)) ([]CellResult, error) {
	all := g.Cells()
	cells := make([]Cell, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(all) {
			return nil, fmt.Errorf("mc: cell index %d out of range (grid has %d cells)", idx, len(all))
		}
		cells[i] = all[idx]
	}
	return g.runCells(ctx, cells, emit)
}

// resolvedCell is the outcome of resolving one grid coordinate under
// its store key: a checkpointed Point loaded from the store, a
// pointState ready for the trial engine, or the resolution error.
type resolvedCell struct {
	key string
	pt  *Point
	ps  *pointState
	err error
}

// resolver turns grid coordinates into engine-ready pointStates. It is
// safe for concurrent use: the golden execution context is keyed by
// benchmark name in a singleflight memo.Map — the first cell of a
// benchmark to arrive computes it, concurrent cells of the same
// benchmark block on that one computation — and the program digest
// and the model/golden/hazard caches inside core.System are
// singleflight themselves, so N racing cells never duplicate a build.
type resolver struct {
	s           Spec
	cells       *artifact.Cache[string, Point]
	resume      bool
	fingerprint string

	ctxs memo.Map[string, *benchCtx]
}

func newResolver(s Spec, g Grid) *resolver {
	return &resolver{s: s, cells: CellCache(g.Store), resume: g.Resume, fingerprint: s.System.Fingerprint()}
}

// lookup spells the cell's content-addressed store key and, when the
// grid resumes, loads its checkpointed Point (nil on a miss). It is the
// one spelling shared by planning and execution, so a planned key is
// always the key the executed cell checkpoints under.
func (r *resolver) lookup(c Cell) (string, *Point, error) {
	digest, err := r.s.System.BenchDigest(c.Bench, r.s.InputSeed)
	if err != nil {
		return "", nil, err
	}
	key := cellKey(r.fingerprint, digest, r.s, c)
	if r.resume {
		if pt, ok := r.cells.Load(key, decodeCell); ok {
			return key, &pt, nil
		}
	}
	return key, nil, nil
}

// resolve materializes one cell: a resumed cell comes back as its
// checkpointed Point, every other cell gets its (cached) model, its
// benchmark context, and — when the context holds a golden trace — its
// hazard table, which makes the cell run batched first-fault sampling.
// The result is a pure function of the cell (all shared state lives in
// singleflight caches), so concurrent resolution of any subset of the
// grid yields exactly what serial resolution would have.
func (r *resolver) resolve(c Cell) resolvedCell {
	key, pt, err := r.lookup(c)
	if err != nil || pt != nil {
		return resolvedCell{key: key, pt: pt, err: err}
	}
	model, err := r.s.System.Model(c.Model)
	if err != nil {
		return resolvedCell{err: err}
	}
	bctx, err := r.ctxs.Get(c.Bench.Name, func() (*benchCtx, error) { return newBenchCtx(r.s, c.Bench) })
	if err != nil {
		return resolvedCell{err: err}
	}
	ps := &pointState{cell: c, ctx: bctx, model: model}
	if bctx.golden != nil {
		// Fetch (or build and cache) the cell's hazard table over the
		// shared golden trace. Hazard rejects a model that is not a
		// fi.HazardModel, so the assertion below cannot fail.
		hz, err := r.s.System.Hazard(c.Bench, r.s.InputSeed, c.Model)
		if err != nil {
			return resolvedCell{err: err}
		}
		ps.hazModel, ps.hazard = model.(fi.HazardModel), hz
	}
	return resolvedCell{key: key, ps: ps}
}

// RunContext evaluates the grid under a context.
//
// Cell resolution — model construction, golden recording, hazard-table
// building, the expensive cold-cache prelude — runs on a bounded pool
// of Spec.Workers resolver goroutines and is pipelined with execution:
// each resolver commits its cell straight into the trial engine, which
// streams cells in enumeration order, so trials for early cells overlap
// resolution of later ones. Committing in enumeration order preserves
// the serial semantics exactly: the first invalid cell still ends the
// grid with the valid prefix's results intact, and every cell's Point
// is bit-identical to resolving the cells one at a time, pinned by the
// differential tests.
//
// Cancellation is honoured at cell-resolution boundaries (no further
// cells are claimed or committed) and at trial granularity inside the
// engine: no new trials are scheduled, in-flight trials finish, and the
// run returns ctx's error once every goroutine it started has exited.
// Cells that completed before the cancellation are already checkpointed
// when a store is attached, so a resubmitted grid resumes past them.
func (g Grid) RunContext(ctx context.Context) ([]CellResult, error) {
	return g.runCells(ctx, g.Cells(), nil)
}

// runCells is the engine entry shared by the full-grid path (RunContext)
// and the subset path (RunCells): resolve and execute exactly the given
// cells, in the given order, emitting each as it becomes final.
func (g Grid) runCells(ctx context.Context, cells []Cell, emit func(int, CellResult)) ([]CellResult, error) {
	s := g.Spec.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := newEngine(s, g.Store, cells)
	eng.emit = emit
	eng.resolveAll(ctx, newResolver(s, g))
	return eng.run(ctx)
}

// resolveAll starts the resolver pool: min(Workers, cells) goroutines,
// each claiming the next unresolved cell, resolving it outside the
// engine lock and committing it; run joins them. Resolution keeps its
// own goroutines rather than becoming a work item of the trial pool: a
// resolve that blocks on a singleflight build (another grid's golden
// recording or hazard table) would idle a trial core for its whole
// duration. Measured on a 2-core host, that design lost 8 of 9
// alternating fisimd-interactive benchmark pairs (median ops_per_s
// 142.6 -> 135.8).
func (e *engine) resolveAll(ctx context.Context, r *resolver) {
	for w := 0; w < min(e.s.Workers, len(e.stream)); w++ {
		e.resolvers.Add(1)
		go func() {
			defer e.resolvers.Done()
			for {
				i, ok := e.claim(ctx)
				if !ok {
					return
				}
				e.commit(i, r.resolve(e.stream[i]))
			}
		}()
	}
}

// claim hands a resolver the next unresolved cell index. It reports
// false once every cell is claimed, the stream has ended, or the run
// has aborted; like the trial workers, it polls ctx synchronously so a
// cancellation stops resolution even before the engine observes it.
func (e *engine) claim(ctx context.Context) (int, bool) {
	if err := ctx.Err(); err != nil {
		e.abort(err)
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil || e.sealed || e.claimed == len(e.stream) {
		return 0, false
	}
	e.claimed++
	return e.claimed - 1, true
}

// commit parks cell i's resolution in its slot and streams in every
// cell that unblocks, in enumeration order: a checkpointed cell becomes
// its CellResult and is emitted, a live cell joins the trial pool, and
// a resolution error seals the stream with the valid prefix intact; so
// does the last cell. Order fixes where a result lands, never its
// numbers (trial RNG depends only on (Seed, trial index)). An aborted
// run commits nothing more, so late cells cannot make a cancelled grid
// look whole.
func (e *engine) commit(i int, resolved resolvedCell) {
	e.mu.Lock()
	e.slots[i] = &resolved
	var cached []int
	for !e.sealed && e.err == nil && e.slots[e.committed] != nil {
		pos := e.committed
		rc, c := e.slots[pos], e.stream[pos]
		if rc.err != nil {
			e.cellErr, e.sealed = rc.err, true
			break
		}
		e.committed++
		e.results[pos] = CellResult{Bench: c.Bench.Name, Model: c.Model, Key: rc.key}
		if rc.pt != nil {
			e.results[pos].Cached, e.results[pos].Point = true, *rc.pt
			cached = append(cached, pos)
		} else {
			rc.ps.slot = pos
			rc.ps.results = make([]trialResult, e.maxTrials)
			rc.ps.target = e.initial
			e.pts = append(e.pts, rc.ps)
			e.totalTrials += e.initial
		}
		e.sealed = e.committed == len(e.stream)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, pos := range cached {
		e.emitCell(pos)
	}
}
