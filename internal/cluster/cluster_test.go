// Differential and failure-mode tests of distributed execution. The
// load-bearing invariant everywhere: for the same spec and seed, every
// cluster shape — the in-process GridBackend, one worker, four workers,
// a worker killed mid-grid — must merge to byte-identical result
// documents, because each cell's Point depends only on (Seed, trial
// index) and the content-addressed keys make duplicates degenerate.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/leaktest"
	"repro/internal/mc"
	"repro/internal/report"
	"repro/internal/server"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

// system returns a shared small-DTA stack; workers and coordinators in
// these tests share it (it is safe for concurrent use), which keeps the
// suite fast while still exercising the full lease/merge path.
func system() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
		sys = core.New(cfg)
	})
	return sys
}

// gridSpec is an 8-cell grid (2 sigmas x 4 freqs), small trials.
func gridSpec(seed int64) server.JobSpec {
	return server.JobSpec{
		Benches: []string{"median"},
		Models:  []string{"C"},
		Vdds:    []float64{0.7},
		Sigmas:  []float64{0, 0.010},
		Freqs:   []float64{690, 705, 720, 735},
		Trials:  6,
		Seed:    seed,
	}
}

// testClient is a fast retry template for coordinator→worker calls.
func testClient() client.Config {
	return client.Config{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1}
}

// startWorkers serves n workers over the shared system and returns
// their base URLs; servers close with the test.
func startWorkers(t *testing.T, n int, cellDelay time.Duration) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(slowCells((&Worker{System: system()}).Handler(), cellDelay))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// slowCells gives a worker a fixed per-node service latency: each
// computed (non-cached) cell event of a lease stream waits delay before
// it is written, one cell at a time per lease, or until the request
// ends. TestClusterShapesBitIdentical (the 4-vs-1-worker speedup gate)
// and TestWorkStealing use it to emulate node capacity on hosts with
// fewer cores than workers.
func slowCells(h http.Handler, delay time.Duration) http.Handler {
	if delay <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&slowCellWriter{ResponseWriter: w, ctx: r.Context(), delay: delay}, r)
	})
}

// slowCellWriter sees each NDJSON event in one Write: the worker's
// json.Encoder writes an event's whole line at once.
type slowCellWriter struct {
	http.ResponseWriter
	ctx   context.Context
	delay time.Duration
}

func (s *slowCellWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"event":"cell"`)) && !bytes.Contains(p, []byte(`"cached":true`)) {
		select {
		case <-time.After(s.delay):
		case <-s.ctx.Done(): // the run is ending: drain it
		}
	}
	return s.ResponseWriter.Write(p)
}

func (s *slowCellWriter) Flush() { s.ResponseWriter.(http.Flusher).Flush() }

// csvOf renders cell results exactly as GET /result?format=csv would.
func csvOf(t *testing.T, cells []mc.CellResult) []byte {
	t.Helper()
	doc := &report.Document{Series: report.FromCells(cells)}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runBackend(t *testing.T, b server.Backend, spec server.JobSpec) []mc.CellResult {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cells, err := b.Run(ctx, canon, nil)
	if err != nil {
		t.Fatalf("backend run: %v", err)
	}
	return cells
}

// TestClusterShapesBitIdentical is the differential anchor: the
// in-process backend, a 1-worker cluster, and a 4-worker cluster
// produce byte-identical CSV documents for the same spec and seed.
//
// It is also the cluster speedup gate: 4 workers must finish a 24-cell
// grid at least 2.5x faster than 1 in wall-clock time. Every worker
// sleeps cellDelay per computed cell, a fixed per-node capacity, so the
// ratio measures lease distribution and pull scheduling rather than CPU
// parallelism and holds on hosts with fewer cores than workers. At 2
// cells per lease each of the 4 workers pulls about 3 leases, so one
// late pull shifts the ratio a little instead of failing the gate.
// Stealing is pinned by TestWorkStealing.
func TestClusterShapesBitIdentical(t *testing.T) {
	const cellDelay = 250 * time.Millisecond
	spec := gridSpec(11)
	spec.Freqs = mc.FreqRange(690, 745, 5) // 2 sigmas x 12 freqs
	want := csvOf(t, runBackend(t, server.GridBackend{System: system()}, spec))
	if len(bytes.TrimSpace(want)) == 0 {
		t.Fatal("reference CSV is empty")
	}

	wall := make(map[int]time.Duration)
	for _, workers := range []int{1, 4} {
		urls := startWorkers(t, workers, cellDelay)
		coord, err := New(system(), nil, urls, Config{LeaseCells: 2, Client: testClient()})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got := csvOf(t, runBackend(t, coord, spec))
		wall[workers] = time.Since(start)
		if !bytes.Equal(got, want) {
			t.Errorf("%d-worker cluster CSV differs from in-process run:\n got: %s\nwant: %s", workers, got, want)
		}
		st := coord.ClusterStats()
		if st.CellsCompleted != 24 {
			t.Errorf("%d workers: CellsCompleted = %d, want 24", workers, st.CellsCompleted)
		}
		if st.WorkersLive != workers {
			t.Errorf("%d workers: WorkersLive = %d", workers, st.WorkersLive)
		}
	}
	speedup := wall[1].Seconds() / wall[4].Seconds()
	t.Logf("4w/1w speedup %.2fx (1 worker %v, 4 workers %v)", speedup, wall[1], wall[4])
	if speedup < 2.5 {
		t.Errorf("4-worker speedup %.2fx below the 2.5x bar (1 worker %v, 4 workers %v)", speedup, wall[1], wall[4])
	}
}

// TestCoordinatorResume pins coordinator-side checkpointing: a second
// run of the same spec on a coordinator with a store answers entirely
// from disk — no new leases — and still matches byte-for-byte.
func TestCoordinatorResume(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, 2, 0)
	coord, err := New(system(), store, urls, Config{LeaseCells: 2, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	spec := gridSpec(12)
	cold := csvOf(t, runBackend(t, coord, spec))
	leases := coord.ClusterStats().Leases
	if leases == 0 {
		t.Fatal("cold run issued no leases")
	}

	warm := runBackend(t, coord, spec)
	for i, c := range warm {
		if !c.Cached {
			t.Errorf("warm cell %d not served from coordinator checkpoints", i)
		}
	}
	if got := coord.ClusterStats().Leases; got != leases {
		t.Errorf("warm run issued %d new leases, want 0", got-leases)
	}
	if got := csvOf(t, warm); !bytes.Equal(got, cold) {
		t.Errorf("warm CSV differs from cold:\n got: %s\nwant: %s", got, cold)
	}
}

// TestCoordinatorCancelLeaksNoGoroutines cancels a job mid-lease: Run
// returns the cancellation, and once the workers' servers close, every
// pull loop, lease stream and worker handler the job started has
// exited.
func TestCoordinatorCancelLeaksNoGoroutines(t *testing.T) {
	system() // build the shared stack outside the measured window
	base := runtime.NumGoroutine()
	var urls []string
	var servers []*httptest.Server
	for range 2 {
		ts := httptest.NewServer(slowCells((&Worker{System: system()}).Handler(), 200*time.Millisecond))
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := New(system(), nil, urls, Config{LeaseCells: 4, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := gridSpec(18).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first accepted cell leaves both 4-cell leases in flight.
	_, err = coord.Run(ctx, canon, func(p mc.Progress) {
		if p.DonePoints > 0 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err=%v, want context.Canceled", err)
	}
	for _, ts := range servers {
		ts.Close()
	}
	leaktest.Settles(t, base)
}

// abortingWorker wraps a worker handler: the first lease stream is cut
// (connection abort) right after the first cell event reaches the wire,
// and every later lease is refused outright — the shape of a node dying
// mid-grid and staying down. redialed closes at the first refused
// lease, so a test can hold other workers until the coordinator has
// requeued the cut lease and handed this node its next one.
type abortingWorker struct {
	inner    http.Handler
	leases   atomic.Int32
	refusing atomic.Bool
	redialed chan struct{}
	once     sync.Once
}

func (a *abortingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/healthz") {
		a.inner.ServeHTTP(w, r)
		return
	}
	if a.refusing.Load() {
		a.once.Do(func() { close(a.redialed) })
		http.Error(w, `{"error":"dying"}`, http.StatusServiceUnavailable)
		return
	}
	a.leases.Add(1)
	a.refusing.Store(true)
	a.inner.ServeHTTP(&abortAfterCell{ResponseWriter: w}, r)
}

// gatedWorker holds a worker's first lease until open closes. While it
// waits, that lease is in flight, so the worker's pull loop can neither
// steal from another lease nor take requeued cells.
type gatedWorker struct {
	inner http.Handler
	open  <-chan struct{}
	held  atomic.Bool
}

func (g *gatedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/lease") && g.held.CompareAndSwap(false, true) {
		select {
		case <-g.open:
		case <-r.Context().Done():
			return
		}
	}
	g.inner.ServeHTTP(w, r)
}

// abortAfterCell panics the handler (aborting the connection) once a
// cell event has been flushed to the client.
type abortAfterCell struct {
	http.ResponseWriter
	sawCell bool
}

func (a *abortAfterCell) Write(p []byte) (int, error) {
	if a.sawCell {
		panic(http.ErrAbortHandler)
	}
	if bytes.Contains(p, []byte(`"event":"cell"`)) {
		a.sawCell = true // abort on the next write, after this event flushes
	}
	return a.ResponseWriter.Write(p)
}

func (a *abortAfterCell) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestWorkerLossFailover kills a worker mid-grid: its cut lease is
// requeued, the dead node is retired after the dial retries run out,
// and the surviving worker finishes the job with results bit-identical
// to the single-node run. Once both servers close, every goroutine the
// job started — the cut lease stream included — has exited.
//
// The good worker's first lease is held until the dying node is
// refused its next lease. Until then the good worker cannot steal the
// cut lease's tail, so the cut requeues cells; and by then the dying
// node holds a lease no one can finish but a retry, so the job cannot
// end before the node is retired.
func TestWorkerLossFailover(t *testing.T) {
	spec := gridSpec(13)
	want := csvOf(t, runBackend(t, server.GridBackend{System: system()}, spec))

	base := runtime.NumGoroutine()
	dying := &abortingWorker{inner: (&Worker{System: system()}).Handler(), redialed: make(chan struct{})}
	good := httptest.NewServer(&gatedWorker{inner: (&Worker{System: system()}).Handler(), open: dying.redialed})
	defer good.Close()
	ts := httptest.NewServer(dying)
	defer ts.Close()

	coord, err := New(system(), nil, []string{ts.URL, good.URL}, Config{LeaseCells: 4, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	got := csvOf(t, runBackend(t, coord, spec))
	if !bytes.Equal(got, want) {
		t.Errorf("post-failover CSV differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	st := coord.ClusterStats()
	if dying.leases.Load() == 0 {
		t.Fatal("dying worker never saw a lease; failover untested")
	}
	if st.LeaseFailures == 0 {
		t.Errorf("LeaseFailures = 0, want >= 1 after a cut stream")
	}
	if st.CellsReassigned == 0 {
		t.Errorf("CellsReassigned = 0, want >= 1 after a cut lease")
	}
	if st.WorkersLive != 1 {
		t.Errorf("WorkersLive = %d, want 1 after the node died", st.WorkersLive)
	}
	if st.CellsCompleted != 8 {
		t.Errorf("CellsCompleted = %d, want 8", st.CellsCompleted)
	}
	good.Close()
	ts.Close()
	leaktest.Settles(t, base)
}

// TestWorkStealing pins the tail-drain: one slow worker holds a big
// lease while a fast one empties the queue, so the fast worker must
// steal from the slow lease's unreported tail — and the duplicate
// completions the victim still produces are discarded harmlessly.
func TestWorkStealing(t *testing.T) {
	slow := httptest.NewServer(slowCells((&Worker{System: system()}).Handler(), 150*time.Millisecond))
	t.Cleanup(slow.Close)
	fast := startWorkers(t, 1, 0)

	spec := gridSpec(14)
	want := csvOf(t, runBackend(t, server.GridBackend{System: system()}, spec))

	// Lease batches of 4: the slow worker takes 4 cells at ~150ms each,
	// the fast worker drains the other 4 quickly and then steals from
	// the slow tail.
	coord, err := New(system(), nil, []string{slow.URL, fast[0]}, Config{LeaseCells: 4, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	got := csvOf(t, runBackend(t, coord, spec))
	if !bytes.Equal(got, want) {
		t.Errorf("post-steal CSV differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	st := coord.ClusterStats()
	if st.CellsStolen == 0 {
		t.Errorf("CellsStolen = 0, want >= 1 (fast worker should raid the slow lease)")
	}
	if st.CellsCompleted != 8 {
		t.Errorf("CellsCompleted = %d, want 8", st.CellsCompleted)
	}
}

// TestFingerprintMismatch pins the substrate handshake: a worker
// configured differently from the coordinator refuses every lease with
// 409, is retired, and the job fails instead of merging wrong numbers.
func TestFingerprintMismatch(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 1024, Seed: 5} // different substrate
	alien := httptest.NewServer((&Worker{System: core.New(cfg)}).Handler())
	t.Cleanup(alien.Close)

	coord, err := New(system(), nil, []string{alien.URL}, Config{Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := gridSpec(15).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = coord.Run(ctx, canon, nil)
	if err == nil {
		t.Fatal("run on a mismatched worker succeeded; fingerprint handshake is not enforced")
	}
	if st := coord.ClusterStats(); st.WorkersLive != 0 {
		t.Errorf("WorkersLive = %d, want 0 after 409 refusals", st.WorkersLive)
	}
}

// TestProgressFanin checks the coordinator sums its workers' progress
// up to the full grid: the last emission covers every point at its
// actual trials, which a fixed grid fixes at the plan's budget.
func TestProgressFanin(t *testing.T) {
	urls := startWorkers(t, 2, 0)
	coord, err := New(system(), nil, urls, Config{LeaseCells: 2, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := gridSpec(16).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last mc.Progress
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := coord.Run(ctx, canon, func(p mc.Progress) {
		mu.Lock()
		last = p
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.DonePoints != 8 || last.TotalPoints != 8 {
		t.Errorf("final progress %d/%d points, want 8/8", last.DonePoints, last.TotalPoints)
	}
	if last.DoneTrials != 48 || last.TotalTrials != 48 {
		t.Errorf("final progress %d/%d trials, want 48/48", last.DoneTrials, last.TotalTrials)
	}
}

// adaptiveSpec is an 8-cell adaptive grid near median's point of first
// failure, where cells extend their budgets past TrialsMin.
func adaptiveSpec() server.JobSpec {
	spec := gridSpec(21)
	spec.Freqs = mc.FreqRange(760, 820, 20)
	spec.TrialsMin, spec.TrialsMax = 4, 64
	return spec
}

// runProgress runs spec on b and returns every progress snapshot it
// reported, in order, with the cells.
func runProgress(t *testing.T, b server.Backend, spec server.JobSpec) ([]mc.Progress, []mc.CellResult) {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var mu sync.Mutex
	var snaps []mc.Progress
	cells, err := b.Run(ctx, canon, func(p mc.Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("backend run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress reported")
	}
	return snaps, cells
}

// finalProgress is the snapshot a grid's cells should end on: every
// point done at its actual trials.
func finalProgress(cells []mc.CellResult) mc.Progress {
	p := mc.Progress{DonePoints: len(cells), TotalPoints: len(cells)}
	for _, c := range cells {
		p.DoneTrials += c.Point.Trials
	}
	p.TotalTrials = p.DoneTrials
	return p
}

// TestProgressAdaptiveMatchesEngine pins the coordinator's progress to
// the in-process engine's on an adaptive grid: both end on the same
// snapshot, every point done at its actual trials, although the cells
// grew their budgets on workers the coordinator only hears from.
func TestProgressAdaptiveMatchesEngine(t *testing.T) {
	spec := adaptiveSpec()
	local, cells := runProgress(t, server.GridBackend{System: system()}, spec)
	want := finalProgress(cells)
	if got := local[len(local)-1]; got != want {
		t.Fatalf("in-process engine ends on %+v, want %+v", got, want)
	}
	if want.TotalTrials <= len(cells)*spec.TrialsMin {
		t.Fatalf("no cell extended its budget (%d trials over %d cells): the grid does not test adaptive totals", want.TotalTrials, len(cells))
	}

	coord, err := New(system(), nil, startWorkers(t, 2, 0), Config{LeaseCells: 2, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	snaps, _ := runProgress(t, coord, spec)
	if got := snaps[len(snaps)-1]; got != want {
		t.Errorf("coordinator ends on %+v, want the engine's %+v", got, want)
	}
}

// TestProgressMonotoneOneWorker checks every snapshot of a 1-worker
// cluster run, fixed and adaptive: done trials and points never
// decrease, done never exceeds total, and the run ends with every point
// done at its actual trials.
func TestProgressMonotoneOneWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec server.JobSpec
	}{{"fixed", gridSpec(22)}, {"adaptive", adaptiveSpec()}} {
		name, spec := tc.name, tc.spec
		coord, err := New(system(), nil, startWorkers(t, 1, 0), Config{LeaseCells: 2, Client: testClient()})
		if err != nil {
			t.Fatal(err)
		}
		snaps, cells := runProgress(t, coord, spec)
		var prev mc.Progress
		for i, p := range snaps {
			if p.DoneTrials < prev.DoneTrials || p.DonePoints < prev.DonePoints {
				t.Errorf("%s: snapshot %d %+v went back from %+v", name, i, p, prev)
			}
			if p.DoneTrials > p.TotalTrials {
				t.Errorf("%s: snapshot %d %+v has more trials done than in total", name, i, p)
			}
			prev = p
		}
		if want := finalProgress(cells); prev != want {
			t.Errorf("%s: ends on %+v, want %+v", name, prev, want)
		}
	}
}

// TestStatsExposesCluster drives the whole stack — manager on a
// coordinator backend, workers over HTTP — and checks /v1/stats gains
// the cluster section (the ClusterReporter seam) with live counters.
func TestStatsExposesCluster(t *testing.T) {
	urls := startWorkers(t, 2, 0)
	coord, err := New(system(), nil, urls, Config{LeaseCells: 2, Client: testClient()})
	if err != nil {
		t.Fatal(err)
	}
	m := server.NewManager(server.Options{System: system(), Backend: coord})
	defer m.Shutdown(context.Background())
	api := httptest.NewServer(server.Handler(m))
	t.Cleanup(api.Close)

	c := client.New(client.Config{Base: api.URL, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sr, err := c.Submit(ctx, gridSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sr.ID); err != nil || st.State != "done" {
		t.Fatalf("wait: state=%v err=%v", st.State, err)
	}

	var buf bytes.Buffer
	if err := c.GetJSON(ctx, "/v1/stats", &buf); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Lanes   []server.LaneStatus  `json:"lanes"`
		Cluster *server.ClusterStats `json:"cluster"`
	}
	if err := json.Unmarshal(buf.Bytes(), &stats); err != nil {
		t.Fatalf("stats decode: %v\n%s", err, buf.Bytes())
	}
	if stats.Cluster == nil {
		t.Fatalf("stats lack the cluster section:\n%s", buf.Bytes())
	}
	if stats.Cluster.WorkersKnown != 2 || stats.Cluster.WorkersLive != 2 {
		t.Errorf("workers known/live = %d/%d, want 2/2", stats.Cluster.WorkersKnown, stats.Cluster.WorkersLive)
	}
	if stats.Cluster.CellsCompleted != 8 {
		t.Errorf("CellsCompleted = %d, want 8", stats.Cluster.CellsCompleted)
	}
	if len(stats.Lanes) == 0 {
		t.Error("stats lack the per-lane scheduler snapshot")
	}
}

// TestClusterQualityFlows pins the per-trial quality distribution into
// the distributed path: cells computed on remote workers travel as JSON
// Points, and their quality summary must (a) be statistically
// equivalent across cluster shapes — identical, in fact, since trial
// RNG is schedule-independent — and (b) actually show degradation at an
// operating point above the failure cliff, proving the fields survive
// the wire rather than decoding as zeros.
func TestClusterQualityFlows(t *testing.T) {
	spec := server.JobSpec{
		Benches: []string{"median"},
		Models:  []string{"C"},
		Vdds:    []float64{0.7},
		Sigmas:  []float64{0.010},
		Freqs:   []float64{700, 860},
		Trials:  40,
		Seed:    23,
	}
	local := runBackend(t, server.GridBackend{System: system()}, spec)

	shapes := make(map[int][]mc.CellResult)
	for _, workers := range []int{1, 4} {
		urls := startWorkers(t, workers, 0)
		coord, err := New(system(), nil, urls, Config{LeaseCells: 1, Client: testClient()})
		if err != nil {
			t.Fatal(err)
		}
		shapes[workers] = runBackend(t, coord, spec)
	}

	for workers, cells := range shapes {
		if len(cells) != len(local) {
			t.Fatalf("%d workers: %d cells, want %d", workers, len(cells), len(local))
		}
		for i, c := range cells {
			if c.Point != local[i].Point {
				t.Errorf("%d workers: cell %d Point differs from in-process run:\nremote %+v\nlocal  %+v",
					workers, i, c.Point, local[i].Point)
			}
		}
	}

	// The clean cell is quality-perfect; the cell above the failure
	// point carries a real, degraded distribution (not wire-zeroed).
	for _, c := range shapes[4] {
		q := c.Point
		switch c.Model.FreqMHz {
		case 700:
			if q.QualityMean != 1 || q.QualityP99 != 1 {
				t.Errorf("clean cell quality not perfect: %+v", q)
			}
		case 860:
			if q.QualityMean <= 0 || q.QualityMean >= 1 {
				t.Errorf("degraded cell QualityMean = %v, want inside (0, 1)", q.QualityMean)
			}
			if q.QualityLo == 0 && q.QualityHi == 0 {
				t.Errorf("degraded cell lost its Wilson interval over the wire: %+v", q)
			}
		}
	}
}
