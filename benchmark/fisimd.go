package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/server"
)

const (
	// keepJobs bounds the daemon's retained jobs: a repeat of a recent
	// job dedups in memory, a repeat of one evicted long ago resumes from
	// store cells.
	keepJobs = 16
	// oldRepeatLag is how many jobs back an old repeat reaches at least:
	// far enough that its job was evicted (at least three quarters of
	// the jobs in between are fresh, each creating a job).
	oldRepeatLag = 64
	// inProcessChecks bounds how many fresh jobs per phase are
	// recomputed in-process for the output check.
	inProcessChecks = 16
)

// fisimdInteractive drives an in-process fisimd (manager, HTTP handler,
// artifact store) with two closed-loop clients that each submit, wait
// and fetch the CSV result before sending the next job.
func fisimdInteractive() workload {
	return workload{
		name: "fisimd-interactive",
		why:  "closed-loop clients: HTTP/JSON, canonicalization, dedup, admission, report encoding and store put/get around fault-free-majority trials",
		spec: server.JobSpec{
			Benches: []string{"median", "mat_mult_8bit"}, Models: []string{"C"},
			Vdds: []float64{0.7}, Sigmas: []float64{0.010},
			FreqLo: 690, FreqHi: 730, FreqStep: 20, Trials: 16,
		},
		digestOps: 32,
		setup: func(c config, spec server.JobSpec) (instance, error) {
			spec, err := spec.Canonicalize()
			if err != nil {
				return nil, err
			}
			sys := core.New(c.core())
			st, err := artifact.Open(filepath.Join(c.dir, "store"))
			if err != nil {
				return nil, err
			}
			sys.AttachStore(st)
			svc, err := startService(sys, st)
			if err != nil {
				return nil, err
			}
			// The warm-up job fills the substrate caches (and the store)
			// at a seed no timed job uses.
			warm, err := withSeed(spec, derive(c.seed, -1))
			if err != nil {
				svc.close()
				return nil, err
			}
			if o := svc.job(svc.clients[0], warm, nil, 0); o.err != nil {
				svc.close()
				return nil, fmt.Errorf("warm-up job: %w", o.err)
			}
			return &fisimdInst{svc: svc, spec: spec}, nil
		},
	}
}

// service is an in-process fisimd on a loopback listener with its own
// clients. The backend wrapper records a span per trial-execution run.
type service struct {
	sys     *core.System
	mgr     *server.Manager
	backend *tracedBackend
	srv     *http.Server
	served  chan error
	tr      *http.Transport
	clients []*client.Client
}

func startService(sys *core.System, store *artifact.Store) (*service, error) {
	be := &tracedBackend{inner: server.GridBackend{System: sys, Store: store, Workers: poolWorkers}}
	mgr := server.NewManager(server.Options{
		System: sys, Store: store, Backend: be, Workers: poolWorkers, KeepJobs: keepJobs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		sys: sys, mgr: mgr, backend: be,
		srv:    &http.Server{Handler: server.Handler(mgr)},
		served: make(chan error, 1),
		tr:     &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		// One attempt per call: a retry would hide a failed request.
		s.clients = append(s.clients, client.New(client.Config{
			Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr},
			MaxAttempts: 1, Seed: int64(i + 1),
		}))
	}
	return s, nil
}

func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	_ = s.mgr.Shutdown(ctx)
	s.tr.CloseIdleConnections()
}

// job submits one spec, waits for it and fetches its CSV result.
func (s *service) job(c *client.Client, spec server.JobSpec, tr *tracer, trace int64) *op {
	o := &op{index: int(trace), kind: "job"}
	ctx := context.Background()
	sp := tr.start("fisimd.job", trace, 0)
	defer sp.end()
	defer s.backend.expect(spec.Seed, tr, trace, sp.id())()
	t0 := time.Now()
	ss := tr.start("client.submit", trace, sp.id())
	sr, err := c.Submit(ctx, spec)
	ss.end()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	ws := tr.start("client.wait", trace, sp.id())
	st, err := c.Wait(ctx, sr.ID)
	ws.end()
	if err != nil {
		o.err = fmt.Errorf("wait: %w", err)
		return o
	}
	if st.State != "done" {
		o.err = fmt.Errorf("job %s ended %s: %s", sr.ID, st.State, st.Error)
		return o
	}
	rs := tr.start("client.result", trace, sp.id())
	var buf bytes.Buffer
	err = c.Result(ctx, sr.ID, "csv", &buf)
	rs.end()
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return o
	}
	o.dur = time.Since(t0)
	o.csv = buf.Bytes()
	if !sr.Deduped {
		o.trials = (st.Cells - st.CachedCells) * spec.Trials
		if st.Started != nil {
			o.queue, o.queued = st.Started.Sub(st.Created), true
		}
	}
	return o
}

// tracedBackend is the manager's Backend: GridBackend, plus a
// "server.backend" span per run when the submitting job was traced.
type tracedBackend struct {
	inner server.GridBackend

	mu      sync.Mutex
	pending map[int64]spanRef // by spec seed
}

type spanRef struct {
	tr            *tracer
	trace, parent int64
}

// expect registers the job span that a run of the spec with this seed
// belongs to, until the returned func is called at the job's end.
func (b *tracedBackend) expect(seed int64, tr *tracer, trace, parent int64) (forget func()) {
	if tr == nil {
		return func() {}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending == nil {
		b.pending = map[int64]spanRef{}
	}
	if _, ok := b.pending[seed]; ok {
		return func() {} // a job in flight already owns the run
	}
	b.pending[seed] = spanRef{tr, trace, parent}
	return func() {
		b.mu.Lock()
		if b.pending[seed].parent == parent {
			delete(b.pending, seed)
		}
		b.mu.Unlock()
	}
}

func (b *tracedBackend) Run(ctx context.Context, spec server.JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	b.mu.Lock()
	ref, ok := b.pending[spec.Seed]
	delete(b.pending, spec.Seed)
	b.mu.Unlock()
	if !ok {
		return b.inner.Run(ctx, spec, onProgress)
	}
	sp := ref.tr.start("server.backend", ref.trace, ref.parent)
	defer sp.end()
	return b.inner.Run(ctx, spec, onProgress)
}

type fisimdInst struct {
	svc  *service
	spec server.JobSpec
	// stats brackets the most recent phase.
	stats0, stats1 server.Stats
}

func (f *fisimdInst) close() { f.svc.close() }

// jobSpec returns job i of the phase's list; its seed fixes every fresh
// job's inputs.
func jobSpec(base server.JobSpec, seed int64, i int) (server.JobSpec, error) {
	return withSeed(base, derive(seed, int64(root(i))))
}

// root maps job i to the fresh job it resubmits, itself when fresh.
// Three of every four jobs are fresh. Job 8k+3 repeats job 8k+1, which
// the daemon still holds, so it dedups in memory. Job 8k+7 repeats the
// k-th fresh job once that is oldRepeatLag jobs back — evicted by then,
// so it resumes from store cells — and job 8k+5 before that. No fresh
// job is repeated from the store twice, so no repeat can dedup onto a
// job at the edge of eviction, which would answer 404 mid-request.
func root(i int) int {
	switch i % 8 {
	case 3:
		return i - 2
	case 7:
		k := i / 8
		if old := 4*(k/3) + k%3; old <= i-oldRepeatLag {
			return old
		}
		return i - 2
	}
	return i
}

func (f *fisimdInst) run(ph *phase) error {
	f.stats0 = f.svc.mgr.Stats()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for _, c := range f.svc.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || ph.more(); first = false {
				i := int(next.Add(1) - 1)
				spec, err := jobSpec(f.spec, ph.seed, i)
				if err != nil {
					errc <- err
					return
				}
				ph.record(f.svc.job(c, spec, ph.tr, int64(i)))
			}
		}()
	}
	wg.Wait()
	f.stats1 = f.svc.mgr.Stats()
	close(errc)
	return <-errc
}

// check pins every repeat's CSV to its original's, and recomputes a
// spread of fresh jobs in-process on the same substrate: the result
// rows must match the daemon's byte for byte.
func (f *fisimdInst) check(ph *phase) {
	ops := ph.sorted()
	byIndex := map[int]*op{}
	var fresh []*op
	for _, o := range ops {
		byIndex[o.index] = o
		if root(o.index) == o.index {
			fresh = append(fresh, o)
		}
	}
	for _, o := range ops {
		r := root(o.index)
		if r == o.index || o.err != nil {
			continue
		}
		if orig, ok := byIndex[r]; ok && orig.err == nil && !bytes.Equal(o.csv, orig.csv) {
			o.err = fmt.Errorf("repeat of job %d returned a different CSV", r)
		}
	}
	step := max(1, len(fresh)/inProcessChecks)
	for k := 0; k < len(fresh); k += step {
		o := fresh[k]
		if o.err != nil {
			continue
		}
		spec, err := jobSpec(f.spec, ph.seed, o.index)
		if err == nil {
			err = inProcessMatches(f.svc.sys, spec, o.csv)
		}
		if err != nil {
			o.err = err
		}
	}
}

func (f *fisimdInst) layers(ph *phase, res *childResult) {
	serverLayers(ph, f.stats0, f.stats1, res)
}

// serverLayers derives the server layer's metrics from a traced phase of
// jobs: client-side span medians, the server-side queue wait, and
// manager counter deltas.
func serverLayers(ph *phase, s0, s1 server.Stats, res *childResult) {
	spans := ph.tr.snapshot()
	for name, span := range map[string]string{
		"server.submit_ms": "client.submit", "server.backend_ms": "server.backend", "server.result_ms": "client.result",
	} {
		ds := durations(spans, span)
		res.put(name, summarize(ds).P50ms, len(ds))
	}
	var waits []time.Duration
	for _, o := range ph.sorted() {
		if o.queued {
			waits = append(waits, o.queue)
		}
	}
	res.put("server.queue_wait_ms", summarize(waits).P50ms, len(waits))
	if sub := s1.Submitted - s0.Submitted; sub > 0 {
		res.put("server.dedup_ratio", float64(s1.Deduped-s0.Deduped)/float64(sub), int(sub))
	}
	shed := (s1.Shed + s1.Displaced + s1.RateLimited + s1.QuotaDenied) -
		(s0.Shed + s0.Displaced + s0.RateLimited + s0.QuotaDenied)
	res.put("server.shed", float64(shed), 1)
}
