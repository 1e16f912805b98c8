// The coordinator side of distributed grid execution: a server.Backend
// that plans a job's cells once, parcels them into small leases, and
// lets per-worker pull loops drain the queue — with work stealing, so a
// fast node that empties the queue takes over the unreported tail of a
// slow node's in-flight lease instead of idling. Leases ride on
// internal/client's retry/backoff; a lease that dies (worker killed,
// deadline, cut stream) has its unfinished cells requeued, and
// duplicate completions — steal races, replayed leases — are discarded
// by cell index with the content-addressed key asserted, which is safe
// precisely because equal keys are bit-identical Points. The merged
// result is therefore byte-identical to the in-process GridBackend's
// for every cluster shape, including mid-grid worker loss.

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/progress"
	"repro/internal/server"
)

// Config tunes a Coordinator. Zero values default sanely.
type Config struct {
	// LeaseCells is the cell batch size per lease (default 4). Small
	// batches keep tails short — stealing and reassignment then move
	// little work — at the cost of more round trips.
	LeaseCells int
	// LeaseTimeout bounds one lease wall-clock (default 5m): a worker
	// that hangs without dying still gets its cells reassigned.
	LeaseTimeout time.Duration
	// Client templates the per-worker API clients (Base is overridden
	// per worker). The zero value inherits client.New's defaults.
	Client client.Config
	// Logf, when set, receives one line per lease-level event.
	Logf func(format string, args ...any)
}

// Coordinator fans grid jobs out to a fixed set of workers. It
// implements server.Backend (the manager drives it exactly like the
// in-process GridBackend) and server.ClusterReporter (/v1/stats).
type Coordinator struct {
	system *core.System
	store  *artifact.Store
	cells  *artifact.Cache[string, mc.Point]
	cfg    Config

	mu      sync.Mutex
	workers []workerRef
	stats   server.ClusterStats
	seq     int64
}

type workerRef struct {
	base string
	api  *client.Client
	dead bool
}

// New builds a coordinator over worker base URLs. The system is the
// coordinator's own substrate — used for planning and fingerprinting,
// never for trials — and must be configured identically to every
// worker's (the lease handshake enforces it). The store, when non-nil,
// checkpoints remotely computed cells coordinator-side, so a restarted
// coordinator resumes a re-submitted grid from disk.
func New(sys *core.System, store *artifact.Store, workerURLs []string, cfg Config) (*Coordinator, error) {
	if len(workerURLs) == 0 {
		return nil, errors.New("cluster: at least one worker URL required")
	}
	if cfg.LeaseCells <= 0 {
		cfg.LeaseCells = 4
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 5 * time.Minute
	}
	c := &Coordinator{system: sys, store: store, cells: mc.CellCache(store), cfg: cfg}
	for _, u := range workerURLs {
		cc := cfg.Client
		cc.Base = u
		c.workers = append(c.workers, workerRef{base: u, api: client.New(cc)})
	}
	c.stats.WorkersKnown = len(c.workers)
	c.stats.WorkersLive = len(c.workers)
	return c, nil
}

// ClusterStats snapshots the cumulative counters.
func (c *Coordinator) ClusterStats() server.ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// markDead retires a worker for the coordinator's lifetime: its pull
// loops exit and no further leases go its way.
func (c *Coordinator) markDead(wi int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.workers[wi].dead {
		c.workers[wi].dead = true
		c.stats.WorkersLive--
		c.logf("worker %s marked dead: %v", c.workers[wi].base, cause)
	}
}

func (c *Coordinator) isDead(wi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[wi].dead
}

// Error classification: the pull loop reacts differently to a worker it
// cannot reach (mark dead), a worker on the wrong substrate (mark
// dead), a cut stream (requeue and retry), and a deterministic
// execution failure (fail the job, as a single-node run would).
type dialError struct{ err error }     // could not establish the lease stream
type execError struct{ err error }     // worker reported a deterministic execution error
type streamError struct{ err error }   // stream cut mid-lease
type protocolError struct{ err error } // worker answered outside the protocol (key mismatch)

func (e dialError) Error() string     { return e.err.Error() }
func (e dialError) Unwrap() error     { return e.err }
func (e execError) Error() string     { return e.err.Error() }
func (e execError) Unwrap() error     { return e.err }
func (e streamError) Error() string   { return e.err.Error() }
func (e streamError) Unwrap() error   { return e.err }
func (e protocolError) Error() string { return e.err.Error() }
func (e protocolError) Unwrap() error { return e.err }

// job is one Run's mutable state, shared by the per-worker pull loops.
type job struct {
	spec        server.JobSpec
	fingerprint string
	plan        []mc.PlannedCell

	cancel context.CancelFunc
	fan    *progress.Fanin

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []int // unassigned cell indices, FIFO
	inflight  map[string]*lease
	done      []bool
	results   []mc.CellResult
	remaining int   // cells neither completed nor cached
	err       error // first fatal error; set once, cancels the job ctx
}

// lease is one in-flight batch on one worker.
type lease struct {
	id     string
	worker int
	cells  []int
	// completed marks cells this lease has reported (accepted or
	// duplicate); stolen marks cells another worker took over (the
	// victim may still report them — harmless duplicates).
	completed map[int]bool
	stolen    map[int]bool
	// accepted progress folded into the fan-in when the lease closes.
	acceptedTrials, acceptedPoints int
}

// pending returns the lease's unreported, unstolen cells in lease
// order; the steal path takes from this list's tail.
func (l *lease) pending() []int {
	var out []int
	for _, idx := range l.cells {
		if !l.completed[idx] && !l.stolen[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// fail records the job's first fatal error and cancels every lease.
func (j *job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel()
}

// Run plans the job, serves what the coordinator's own checkpoints
// already answer, and drains the rest through the worker pull loops.
func (c *Coordinator) Run(ctx context.Context, spec server.JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	grid, err := spec.Grid(c.system, c.store, 0, nil)
	if err != nil {
		return nil, err
	}
	plan, err := grid.PlanCells()
	if err != nil {
		return nil, err
	}
	n := len(plan)

	fan := progress.NewFanin(func(cnt progress.Counts) {
		if onProgress != nil {
			onProgress(mc.Progress{
				DoneTrials: cnt.Done, TotalTrials: cnt.Total,
				DonePoints: cnt.DonePoints, TotalPoints: cnt.TotalPoints,
			})
		}
	})
	// The totals estimate matches the in-process engine's convention:
	// under adaptive allocation every cell opens at TrialsMin.
	estTrials := spec.Trials
	if spec.TrialsMax > 0 {
		estTrials = spec.TrialsMin
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &job{
		spec:        spec,
		fingerprint: spec.Fingerprint(c.system.Fingerprint()),
		plan:        plan,
		cancel:      cancel,
		fan:         fan,
		inflight:    map[string]*lease{},
		done:        make([]bool, n),
		results:     make([]mc.CellResult, n),
	}
	j.cond = sync.NewCond(&j.mu)

	base := progress.Counts{Total: estTrials * n, TotalPoints: n}
	for _, pc := range plan {
		if pc.Point != nil {
			j.results[pc.Index] = mc.CellResult{
				Bench: pc.Cell.Bench.Name, Model: pc.Cell.Model, Key: pc.Key, Cached: true, Point: *pc.Point,
			}
			j.done[pc.Index] = true
			base.Done += pc.Point.Trials
			base.DonePoints++
			continue
		}
		j.queue = append(j.queue, pc.Index)
	}
	j.remaining = len(j.queue)
	fan.Fold(base)
	if j.remaining == 0 {
		return j.results, nil
	}

	// Job-context cancellation wakes idle pull loops blocked in next().
	stop := context.AfterFunc(jctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	for wi := range c.workers {
		if c.isDead(wi) {
			continue
		}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.pullLoop(jctx, j, wi)
		}(wi)
	}
	wg.Wait()

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	if ctx.Err() != nil && j.remaining > 0 {
		return nil, ctx.Err()
	}
	if j.remaining > 0 {
		return nil, fmt.Errorf("cluster: %d of %d cells unfinished: no live workers left (%d configured)",
			j.remaining, n, len(c.workers))
	}
	return j.results, nil
}

// pullLoop is one worker's work loop: lease, execute, repeat, until the
// job drains, fails, or this worker proves unusable.
func (c *Coordinator) pullLoop(ctx context.Context, j *job, wi int) {
	for {
		l := c.next(ctx, j, wi)
		if l == nil {
			return
		}
		err := c.runLease(ctx, j, wi, l)
		c.finishLease(j, l, err)
		if err == nil || ctx.Err() != nil {
			if ctx.Err() != nil {
				return
			}
			continue
		}
		var de dialError
		var ee execError
		var pe protocolError
		switch {
		case errors.As(err, &ee):
			// Deterministic execution failure: a single-node run would
			// fail the job too.
			j.fail(ee.err)
			return
		case errors.As(err, &de):
			// Could not even open a stream after the client's full retry
			// budget: the worker is gone (or refusing the substrate —
			// 409 surfaces here as a permanent APIError).
			c.markDead(wi, de.err)
			return
		case errors.As(err, &pe):
			// The worker answers but speaks nonsense (key mismatch past
			// the fingerprint handshake): trust it with nothing further.
			c.markDead(wi, pe.err)
			return
		default:
			// Cut stream / lease deadline: cells are requeued; the worker
			// may well still be healthy (or restarting), so try again —
			// if it is truly gone the next dial marks it dead.
			c.logf("lease %s on %s failed, cells requeued: %v", l.id, c.workers[wi].base, err)
		}
	}
}

// next blocks until there is work for this worker — a queue batch, or a
// steal from the slowest in-flight lease — or returns nil when the job
// is over (drained, failed, canceled). Called without j.mu held.
func (c *Coordinator) next(ctx context.Context, j *job, wi int) *lease {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if ctx.Err() != nil || j.err != nil || j.remaining == 0 {
			return nil
		}
		if len(j.queue) > 0 {
			take := c.cfg.LeaseCells
			if take > len(j.queue) {
				take = len(j.queue)
			}
			cells := append([]int(nil), j.queue[:take]...)
			j.queue = j.queue[take:]
			return c.openLeaseLocked(j, wi, cells, 0)
		}
		// Steal: pick the in-flight lease with the largest unreported
		// tail (at least 2 — stealing a lease's last cell just races it)
		// and take the trailing half. The victim keeps computing the
		// stolen cells — it cannot know — so the steal buys tail latency,
		// and the duplicate completions dedupe by index.
		var victim *lease
		var victimPending []int
		for _, l := range j.inflight {
			p := l.pending()
			if len(p) >= 2 && len(p) > len(victimPending) {
				victim, victimPending = l, p
			}
		}
		if victim != nil {
			take := len(victimPending) / 2
			if take > c.cfg.LeaseCells {
				take = c.cfg.LeaseCells
			}
			cells := append([]int(nil), victimPending[len(victimPending)-take:]...)
			for _, idx := range cells {
				victim.stolen[idx] = true
			}
			c.logf("worker %s steals %d cells from lease %s", c.workers[wi].base, take, victim.id)
			return c.openLeaseLocked(j, wi, cells, take)
		}
		j.cond.Wait()
	}
}

// openLeaseLocked registers a new lease and bumps the counters; stolen
// is the number of cells taken from another lease (for CellsStolen).
func (c *Coordinator) openLeaseLocked(j *job, wi int, cells []int, stolen int) *lease {
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("L%06d", c.seq)
	c.stats.Leases++
	c.stats.CellsLeased += int64(len(cells))
	c.stats.CellsStolen += int64(stolen)
	c.mu.Unlock()
	l := &lease{id: id, worker: wi, cells: cells, completed: map[int]bool{}, stolen: map[int]bool{}}
	j.inflight[id] = l
	return l
}

// runLease drives one lease to completion: open the stream through the
// retrying client, then merge events as they arrive.
func (c *Coordinator) runLease(ctx context.Context, j *job, wi int, l *lease) error {
	body, err := json.Marshal(LeaseRequest{
		LeaseID: l.id, Fingerprint: j.fingerprint, Spec: j.spec, Cells: l.cells,
	})
	if err != nil {
		return protocolError{err}
	}
	lctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTimeout)
	defer cancel()
	resp, err := c.workers[wi].api.Do(lctx, http.MethodPost, "/v1/worker/lease", body)
	if err != nil {
		return dialError{err}
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev LeaseEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				err = fmt.Errorf("cluster: lease %s stream ended before done", l.id)
			}
			return streamError{err}
		}
		switch ev.Event {
		case "progress":
			j.fan.Update(l.id, progress.Counts{Done: ev.DoneTrials, DonePoints: ev.DonePoints})
		case "cell":
			if err := c.acceptCell(j, l, ev); err != nil {
				return err
			}
		case "done":
			// A worker reports every cell it holds before done; cells
			// it skips would be requeued and leased again, forever.
			j.mu.Lock()
			missing := len(l.pending())
			j.mu.Unlock()
			if missing > 0 {
				return protocolError{fmt.Errorf("cluster: lease %s: done with %d cells unreported", l.id, missing)}
			}
			return nil
		case "error":
			return execError{fmt.Errorf("worker %s, lease %s: %s", c.workers[wi].base, l.id, ev.Error)}
		default:
			return protocolError{fmt.Errorf("cluster: lease %s: unknown event %q", l.id, ev.Event)}
		}
	}
}

// acceptCell merges one completed cell: first completion wins and is
// checkpointed; later ones (steal races, replays) are discarded as
// duplicates after asserting they carry the same content-addressed key.
// A cell the lease does not hold is outside the protocol, whatever its
// key.
func (c *Coordinator) acceptCell(j *job, l *lease, ev LeaseEvent) error {
	if !slices.Contains(l.cells, ev.Index) || ev.Point == nil {
		return protocolError{fmt.Errorf("cluster: lease %s: malformed cell event (index %d)", l.id, ev.Index)}
	}
	pc := j.plan[ev.Index]
	if ev.Key != pc.Key {
		// Past the fingerprint handshake this cannot happen unless the
		// worker is broken; merging would risk silently wrong results.
		return protocolError{fmt.Errorf("cluster: lease %s cell %d: key mismatch (worker %q, plan %q)", l.id, ev.Index, ev.Key, pc.Key)}
	}
	j.mu.Lock()
	l.completed[ev.Index] = true
	if j.done[ev.Index] {
		j.mu.Unlock()
		c.mu.Lock()
		c.stats.CellsDuplicate++
		c.mu.Unlock()
		return nil
	}
	j.done[ev.Index] = true
	j.remaining--
	j.results[ev.Index] = mc.CellResult{
		Bench: pc.Cell.Bench.Name, Model: pc.Cell.Model, Key: pc.Key, Cached: ev.Cached, Point: *ev.Point,
	}
	l.acceptedTrials += ev.Point.Trials
	l.acceptedPoints++
	j.cond.Broadcast()
	j.mu.Unlock()

	c.mu.Lock()
	c.stats.CellsCompleted++
	c.mu.Unlock()

	// Checkpoint coordinator-side so a restarted coordinator resumes
	// this grid from its own disk, independent of worker caches.
	c.cells.Save(pc.Key, *ev.Point)
	return nil
}

// finishLease retires a lease: settle its accepted progress, requeue
// whatever it leaves uncovered, and wake the other pull loops.
func (c *Coordinator) finishLease(j *job, l *lease, lerr error) {
	j.mu.Lock()
	delete(j.inflight, l.id)
	j.fan.Close(l.id, progress.Counts{Done: l.acceptedTrials, DonePoints: l.acceptedPoints})
	var requeued int64
	for _, idx := range l.cells {
		// A cell is uncovered if nobody reported it and no thief owns
		// it; a successful lease leaves none (stolen cells excepted —
		// the thief's lease covers those).
		if !l.completed[idx] && !l.stolen[idx] && !j.done[idx] {
			j.queue = append(j.queue, idx)
			requeued++
		}
	}
	j.cond.Broadcast()
	j.mu.Unlock()

	c.mu.Lock()
	if lerr != nil {
		c.stats.LeaseFailures++
	}
	c.stats.CellsReassigned += requeued
	c.mu.Unlock()
}
