// Package server is the batch-simulation service layer: a job manager
// that runs experiment-grid requests asynchronously on a pluggable
// execution Backend (the in-process mc worker pool today, see
// backend.go), and an HTTP/JSON API (see http.go and docs/API.md) that
// exposes it. It sits above internal/mc, internal/report and
// internal/artifact — the same position cmd/sweep occupies, but
// long-running: one core.System (so model, golden-trace and hazard
// caches amortize across every job the daemon ever serves) and one
// optional artifact store shared by all jobs.
//
// Jobs are deduplicated by content: a request is canonicalized
// (spec.go) and hashed together with the system fingerprint, and two
// clients submitting the same experiment share one execution and one
// result — the submit path returns the existing job. Completed jobs are
// retained in memory (bounded, LRU by completion) and their grids are
// checkpointed per cell to the artifact store, so even a job evicted
// from memory re-answers from warm cells in milliseconds when
// resubmitted. Cancellation propagates through context into the grid
// engine at trial granularity, and Shutdown drains: no new submissions,
// queued and running jobs finish (or are force-cancelled when the drain
// context expires), and blocked long-polls and progress streams return
// promptly instead of holding the drain open.
//
// Admission control makes the service multi-tenant and
// overload-tolerant (sched.go, tenant.go): per-client token-bucket rate
// limits and active-job quotas, two bounded priority lanes
// ("interactive"/"batch") with weighted-round-robin dispatch, and
// load-shedding that rejects — or displaces — lowest-priority work
// first, advertising a Retry-After derived from current queue depth and
// the observed per-cell throughput.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/progress"
	"repro/internal/report"
)

// Submission and lifecycle errors surfaced to clients.
var (
	// ErrQueueFull reports a full lane or global queue; the request was
	// shed (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrRateLimited reports an exhausted per-client token bucket
	// (HTTP 429 with Retry-After).
	ErrRateLimited = errors.New("server: rate limit exceeded")
	// ErrQuotaExceeded reports a client at its active-job quota
	// (HTTP 429 with Retry-After).
	ErrQuotaExceeded = errors.New("server: active-job quota exceeded")
	// ErrDraining reports a manager that is shutting down and no longer
	// accepts jobs (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound reports an unknown job ID (HTTP 404).
	ErrNotFound = errors.New("server: no such job")
	// ErrNotFinished reports a result request for a job that has not
	// completed yet (HTTP 409).
	ErrNotFinished = errors.New("server: job not finished")
)

// OverloadError wraps an admission refusal with the advice the HTTP
// layer turns into a Retry-After header. Unwrap preserves the refusal
// identity, so errors.Is(err, ErrQueueFull) and friends keep working.
type OverloadError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

func (e *OverloadError) Unwrap() error { return e.Err }

// overload wraps err with retry advice, flooring at one second so
// clients never busy-loop on a zero hint.
func overload(err error, retry time.Duration) error {
	if retry < time.Second {
		retry = time.Second
	}
	return &OverloadError{Err: err, RetryAfter: retry}
}

// State is a job's lifecycle state. The machine is
// queued → running → {done, failed, canceled}; cancel requests move
// queued jobs terminal directly and running jobs through the grid
// engine's context, and load-shedding moves displaced queued jobs to
// canceled with a "shed:" cause.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// shedCause marks jobs that were admitted and later displaced by
// higher-priority work; it is the honest record load-shedding leaves.
const shedCause = "shed: displaced by higher-priority admission, resubmit later"

// Progress is one job progress snapshot as streamed to clients: the
// engine's trial/point counters plus the job state, so a single stream
// carries both liveness and completion.
type Progress struct {
	State State `json:"state"`
	mc.Progress
}

// Options configures a Manager. System is required; everything else
// defaults.
type Options struct {
	// System is the shared simulation stack; its model/golden/hazard
	// caches amortize across all jobs, and its fingerprint anchors job
	// dedup identity.
	System *core.System
	// Store, when non-nil, persists characterizations, traces, hazard
	// tables and grid cells; deduped resubmissions of completed grids
	// answer from it. It should be the same store attached to System.
	Store *artifact.Store
	// Backend executes jobs (default: GridBackend over System, Store and
	// Workers). Tests inject slow/flaky backends here; the ROADMAP's
	// remote-node coordinator slots in here too.
	Backend Backend
	// QueueCap bounds the number of jobs queued but not yet running
	// across all lanes (default 64); submissions beyond it are shed with
	// ErrQueueFull.
	QueueCap int
	// Lanes overrides per-lane caps and weights (keys LaneInteractive,
	// LaneBatch; defaults: cap = QueueCap, weights 4 and 1).
	Lanes map[string]LaneConfig
	// Tenants is the per-client admission table; the zero value is
	// unlimited for everyone.
	Tenants TenantsConfig
	// Parallel is the number of jobs executed concurrently (default 1:
	// each job already saturates the cores through the mc worker pool).
	Parallel int
	// Workers caps the mc worker pool per job (default NumCPU).
	Workers int
	// KeepJobs bounds retained terminal jobs (default 256); the least
	// recently submitted or deduped terminal jobs are evicted first.
	// Queued and running jobs are never evicted.
	KeepJobs int
	// Now is the clock (default time.Now); tests drive the token buckets
	// with a fake one.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 256
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Backend == nil {
		o.Backend = GridBackend{System: o.System, Store: o.Store, Workers: o.Workers}
	}
	return o
}

// Stats counts manager traffic since start; it backs the /v1/stats
// endpoint and the dedup/admission integration tests.
type Stats struct {
	Submitted int64 `json:"submitted"` // accepted submissions, deduped included
	Deduped   int64 `json:"deduped"`   // submissions answered by an existing job
	Executed  int64 `json:"executed"`  // grid runs actually started
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Admission refusals. Shed counts submissions rejected because a
	// lane or the queue was full; Displaced counts *accepted* queued
	// jobs evicted to make room for higher-priority arrivals (they go
	// terminal with a "shed:" cause — never silently lost).
	Shed        int64 `json:"shed"`
	Displaced   int64 `json:"displaced"`
	RateLimited int64 `json:"rate_limited"`
	QuotaDenied int64 `json:"quota_denied"`
}

// Job is one submitted experiment. Mutable fields are guarded by the
// manager's mutex; the result document is immutable once the job is
// terminal.
type Job struct {
	ID          string
	Fingerprint string
	Spec        JobSpec // canonical

	client   string // submitting tenant (first submitter wins for quota accounting)
	lane     string // effective lane; promotion can raise it above Spec.Priority
	released bool   // tenant active-slot already given back

	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time

	cells       []mc.CellResult
	cachedCells int
	doc         *report.Document

	ctx    context.Context // cancelled by Cancel / Shutdown force-drain
	cancel context.CancelFunc
	done   chan struct{} // closed when terminal
	prog   *progress.Broadcaster[Progress]
}

// Status is the JSON status snapshot of a job.
type Status struct {
	ID          string     `json:"id"`
	Fingerprint string     `json:"fingerprint"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Client      string     `json:"client,omitempty"`
	Lane        string     `json:"lane,omitempty"`
	Spec        JobSpec    `json:"spec"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
	Cells       int        `json:"cells,omitempty"`
	CachedCells int        `json:"cached_cells,omitempty"`
	Progress    *Progress  `json:"progress,omitempty"`
}

// Manager owns the job table, the dedup index, the priority-lane
// scheduler and the tenant registry, and executes jobs on
// Options.Parallel runner goroutines.
type Manager struct {
	opt Options

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job          // least recently submitted or deduped first, for terminal-job eviction
	byFP     map[string]*Job // live dedup index: queued/running/done jobs
	tenants  map[string]*tenant
	seq      int
	draining bool
	stats    Stats

	// Observed service time, for Retry-After advice: exponentially
	// weighted seconds-per-cell and cells-per-job over completed runs.
	// ewmaSeeded distinguishes "no history yet" from genuinely observed
	// values — a legitimate observation can be arbitrarily fast, and a
	// zero-valued sentinel would silently restart the average on it.
	ewmaSeeded   bool
	ewmaCellSec  float64
	ewmaJobCells float64

	sched   *scheduler
	closing chan struct{} // closed when Shutdown begins; unblocks waiters
	runners sync.WaitGroup
}

// NewManager starts a manager and its runner goroutines.
func NewManager(opt Options) *Manager {
	opt = opt.withDefaults()
	m := &Manager{
		opt:     opt,
		jobs:    make(map[string]*Job),
		byFP:    make(map[string]*Job),
		tenants: make(map[string]*tenant),
		sched:   newScheduler(opt.QueueCap, opt.Lanes),
		closing: make(chan struct{}),
	}
	for i := 0; i < opt.Parallel; i++ {
		m.runners.Add(1)
		go func() {
			defer m.runners.Done()
			for {
				j, ok := m.sched.pop()
				if !ok {
					return
				}
				m.runJob(j)
			}
		}()
	}
	return m
}

// Stats returns a snapshot of the traffic counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Lanes snapshots the scheduler lanes for /v1/stats.
func (m *Manager) Lanes() []LaneStatus { return m.sched.snapshot() }

// System returns the manager's simulation stack (for cache summaries).
func (m *Manager) System() *core.System { return m.opt.System }

// Backend returns the manager's execution backend; /v1/stats inspects
// it for the optional cluster counters.
func (m *Manager) Backend() Backend { return m.opt.Backend }

// Closing is closed when Shutdown begins; long-polls and progress
// streams select on it so a drain never waits for client timeouts.
func (m *Manager) Closing() <-chan struct{} { return m.closing }

// RetryAfter estimates how long until queued-ahead work clears: queue
// depth times the observed per-cell service time and cells-per-job,
// spread over the runner count. It is the Retry-After advice attached
// to every shed response (floored at 1s, capped at 5m).
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retryAfterLocked()
}

func (m *Manager) retryAfterLocked() time.Duration {
	perJob := m.ewmaCellSec * m.ewmaJobCells
	if perJob <= 0 {
		perJob = 1 // no history yet: assume a small job
	}
	jobsAhead := float64(m.sched.depth())/float64(m.opt.Parallel) + 1
	d := time.Duration(jobsAhead * perJob * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// observeLocked folds a completed run into the service-time EWMAs.
func (m *Manager) observeLocked(dur time.Duration, cells int) {
	if cells <= 0 {
		cells = 1
	}
	const alpha = 0.3
	perCell := dur.Seconds() / float64(cells)
	if !m.ewmaSeeded {
		m.ewmaSeeded = true
		m.ewmaCellSec, m.ewmaJobCells = perCell, float64(cells)
		return
	}
	m.ewmaCellSec += alpha * (perCell - m.ewmaCellSec)
	m.ewmaJobCells += alpha * (float64(cells) - m.ewmaJobCells)
}

// releaseLocked gives a job's tenant slot back exactly once.
func (m *Manager) releaseLocked(j *Job) {
	if j.released {
		return
	}
	j.released = true
	if t, ok := m.tenants[j.client]; ok && t.active > 0 {
		t.active--
	}
}

// SubmitAs canonicalizes and enqueues a job on behalf of a client. A
// spec Canonicalize rejects, or one with a supply at or below the
// System's threshold, is a client error.
// Admission order: the client's token bucket first (every submission
// costs a token, deduped ones included), then dedup — if a live job
// (queued, running or successfully completed) already carries the same
// fingerprint, that job is returned with deduped = true and nothing new
// runs (an interactive duplicate of a queued batch job promotes it) —
// then the client's active-job quota, then lane admission, which may
// shed the request (ErrQueueFull) or displace queued lower-priority
// work. Failed and cancelled jobs do not satisfy dedup — resubmitting
// one schedules a fresh run. Refusals carry Retry-After advice via
// OverloadError.
func (m *Manager) SubmitAs(client string, spec JobSpec) (*Job, bool, error) {
	c, err := spec.Canonicalize()
	if err == nil {
		err = c.checkSupplies(m.opt.System)
	}
	if err != nil {
		return nil, false, err
	}
	fp := c.Fingerprint(m.opt.System.Fingerprint())
	if client == "" {
		client = anonClient
	}
	now := m.opt.Now()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	cfg := m.opt.Tenants.configFor(client)
	t := m.tenantLocked(client)
	if ok, retry := t.take(now, cfg); !ok {
		m.stats.RateLimited++
		m.mu.Unlock()
		return nil, false, overload(ErrRateLimited, retry)
	}
	if j, ok := m.byFP[fp]; ok {
		m.stats.Submitted++
		m.stats.Deduped++
		// A dedup hit is a use: move the job to the back of the eviction
		// order, so the submission that just got it can still read its
		// result after later submissions evict older terminal jobs.
		m.touchLocked(j)
		promote := j.state == StateQueued && laneOutranks(c.Priority, j.lane)
		if promote {
			j.lane = c.Priority
		}
		m.mu.Unlock()
		if promote {
			m.sched.promote(j, c.Priority)
		}
		return j, true, nil
	}
	if cfg.MaxActive > 0 && t.active >= cfg.MaxActive {
		m.stats.QuotaDenied++
		retry := m.retryAfterLocked()
		m.mu.Unlock()
		return nil, false, overload(ErrQuotaExceeded, retry)
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:          fmt.Sprintf("j%06d", m.seq),
		Fingerprint: fp,
		Spec:        c,
		client:      client,
		lane:        c.Priority,
		state:       StateQueued,
		created:     now,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		prog:        progress.NewBroadcaster[Progress](),
	}
	j.prog.Publish(Progress{State: StateQueued})
	displaced, err := m.sched.push(j, j.lane)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			m.stats.Shed++
		}
		retry := m.retryAfterLocked()
		m.mu.Unlock()
		cancel()
		return nil, false, overload(err, retry)
	}
	t.active++
	m.stats.Submitted++
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.byFP[fp] = j
	m.evictLocked()
	var final Progress
	if displaced != nil {
		m.stats.Displaced++
		final = m.terminateQueuedLocked(displaced, shedCause)
	}
	m.mu.Unlock()
	if displaced != nil {
		finishQueued(displaced, final)
	}
	return j, false, nil
}

// laneOutranks reports whether lane a is strictly higher priority than
// lane b (only interactive outranks batch in the fixed two-lane set).
func laneOutranks(a, b string) bool {
	return a == LaneInteractive && b != LaneInteractive
}

// terminateQueuedLocked moves a still-queued job (already out of the
// scheduler) to canceled with the given cause, releasing its dedup
// entry and tenant slot. The caller must finish the transition outside
// the lock with finishQueued.
func (m *Manager) terminateQueuedLocked(j *Job, cause string) Progress {
	j.state = StateCanceled
	j.err = cause
	j.finished = m.opt.Now()
	delete(m.byFP, j.Fingerprint)
	m.releaseLocked(j)
	return m.progressLocked(j)
}

// finishQueued completes a queued job's terminal transition outside the
// manager lock: release the context, deliver the final snapshot, close
// the stream and wake waiters.
func finishQueued(j *Job, final Progress) {
	j.cancel()
	j.prog.CloseWith(final)
	close(j.done)
}

// runJob executes one dequeued job to a terminal state on the backend.
func (m *Manager) runJob(j *Job) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = m.opt.Now()
	m.stats.Executed++
	m.mu.Unlock()
	j.prog.Publish(Progress{State: StateRunning})

	cells, err := m.opt.Backend.Run(j.ctx, j.Spec, func(p mc.Progress) {
		j.prog.Publish(Progress{StateRunning, p})
	})

	m.mu.Lock()
	j.finished = m.opt.Now()
	m.releaseLocked(j)
	switch {
	case errors.Is(err, context.Canceled):
		// Keyed off the run's own error, not ctx.Err(): a cancel that
		// lands after the grid completed still counts as done.
		j.state = StateCanceled
		j.err = context.Canceled.Error()
		m.stats.Canceled++
		delete(m.byFP, j.Fingerprint)
	case err != nil:
		j.state = StateFailed
		j.err = err.Error()
		m.stats.Failed++
		delete(m.byFP, j.Fingerprint)
	default:
		j.state = StateDone
		j.cells = cells
		for _, c := range cells {
			if c.Cached {
				j.cachedCells++
			}
		}
		j.doc = &report.Document{
			Meta: report.Meta{
				Tool:  "fisimd",
				Seed:  j.Spec.Seed,
				Cells: len(cells),
				Axes:  j.Spec.axesSummary(),
			},
			Series: report.FromCells(cells),
		}
		m.stats.Done++
		m.observeLocked(j.finished.Sub(j.started), len(cells))
	}
	final := m.progressLocked(j)
	m.mu.Unlock()

	j.prog.CloseWith(final)
	j.cancel() // release the context's resources
	close(j.done)
}

// progressLocked composes a job's current Progress snapshot under the
// manager lock.
func (m *Manager) progressLocked(j *Job) Progress {
	p, ok := j.prog.Last()
	if !ok {
		p = Progress{}
	}
	p.State = j.state
	return p
}

// touchLocked moves a retained job to the back of m.order.
func (m *Manager) touchLocked(j *Job) {
	for i, o := range m.order {
		if o == j {
			copy(m.order[i:], m.order[i+1:])
			m.order[len(m.order)-1] = j
			return
		}
	}
}

// evictLocked drops the least recently submitted-or-deduped terminal
// jobs beyond KeepJobs.
func (m *Manager) evictLocked() {
	terminal := 0
	for _, j := range m.order {
		if j.state.Terminal() {
			terminal++
		}
	}
	if terminal <= m.opt.KeepJobs {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if terminal > m.opt.KeepJobs && j.state.Terminal() {
			terminal--
			delete(m.jobs, j.ID)
			if m.byFP[j.Fingerprint] == j {
				delete(m.byFP, j.Fingerprint)
			}
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Status snapshots a job's public state.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

func (m *Manager) statusLocked(j *Job) Status {
	st := Status{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		State:       j.state,
		Error:       j.err,
		Client:      j.client,
		Lane:        j.lane,
		Spec:        j.Spec,
		Created:     j.created,
		Cells:       len(j.cells),
		CachedCells: j.cachedCells,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	p := m.progressLocked(j)
	st.Progress = &p
	return st
}

// List snapshots every retained job, least recently submitted or
// deduped first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, j := range m.order {
		out = append(out, m.statusLocked(j))
	}
	return out
}

// Result returns a finished job's result document. The document is
// built once at completion, so every client — including all deduped
// submitters — renders the same bytes.
func (m *Manager) Result(id string) (*report.Document, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return j.doc, nil
	case StateFailed:
		return nil, fmt.Errorf("server: job failed: %s", j.err)
	case StateCanceled:
		return nil, fmt.Errorf("server: job canceled")
	}
	return nil, ErrNotFinished
}

// Cancel requests cancellation. Queued jobs go terminal immediately —
// their scheduler slot, dedup entry and tenant quota slot are all
// released right away, not at eviction — and running jobs stop at the
// next trial boundary through the backend's context. Cancelling a
// terminal job is a no-op returning false.
func (m *Manager) Cancel(id string) (bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		// Pull it out of the lane first so the slot frees immediately;
		// if a runner raced us and already popped it, the state change
		// below makes runJob skip it.
		m.sched.remove(j)
		final := m.terminateQueuedLocked(j, context.Canceled.Error())
		m.stats.Canceled++
		m.mu.Unlock()
		finishQueued(j, final)
		return true, nil
	case StateRunning:
		m.mu.Unlock()
		j.cancel()
		return true, nil
	}
	m.mu.Unlock()
	return false, nil
}

// Wait blocks until the job is terminal, ctx expires, or the manager
// begins shutting down, returning the final (or current) status. The
// shutdown case is what keeps long-polls from pinning a drain to the
// client's timeout.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, err := m.Get(id)
	if err != nil {
		return Status{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	case <-m.closing:
	}
	return m.Status(id)
}

// Subscribe attaches a progress observer to a job. The returned channel
// carries coalesced Progress snapshots and closes when the job is
// terminal (after delivering the terminal snapshot); for an
// already-terminal job it delivers exactly that snapshot. Always call
// cancel.
func (m *Manager) Subscribe(id string) (<-chan Progress, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	if j.state.Terminal() {
		final := m.progressLocked(j)
		m.mu.Unlock()
		ch := make(chan Progress, 1)
		ch <- final
		close(ch)
		return ch, func() {}, nil
	}
	m.mu.Unlock()
	ch, cancel := j.prog.Subscribe()
	return ch, cancel, nil
}

// Shutdown drains the manager: no further submissions are accepted,
// queued and running jobs run to completion, and the call returns when
// every runner has stopped. Blocked Wait calls and progress streams are
// released immediately (Closing), so a drain never waits on a client's
// long-poll timeout. If ctx expires first, all remaining jobs are
// cancelled and Shutdown waits for the runners to observe it.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.closing)
	m.sched.close()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.runners.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.order {
			if !j.state.Terminal() {
				j.cancel()
			}
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// axesSummary renders the canonical axes for report metadata.
func (s JobSpec) axesSummary() string {
	return fmt.Sprintf("bench=%v model=%v vdd=%v sigma=%v freqs=%d mode=%s",
		s.Benches, s.Models, s.Vdds, s.Sigmas, len(s.Freqs), s.Mode)
}

// ceilSeconds renders a duration as whole seconds for Retry-After
// headers, rounding up so the advice is never optimistic.
func ceilSeconds(d time.Duration) int {
	return int(math.Ceil(d.Seconds()))
}
