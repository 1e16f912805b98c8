// The worker side of distributed grid execution: a small HTTP surface
// that executes leased cells on this node's core.System and streams
// results back as they land. A worker is stateless between leases —
// everything it needs arrives in the LeaseRequest — so workers can be
// added, restarted, or killed freely; the coordinator's lease
// reassignment and the content-addressed cell keys absorb the churn.

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mc"
)

// progressInterval throttles progress events on the lease stream: cell
// and terminal events always flush immediately, progress snapshots at
// most this often.
const progressInterval = 100 * time.Millisecond

// maxLeaseBody bounds a lease request; a canonical spec plus a cell
// index batch is far smaller.
const maxLeaseBody = 1 << 20

// Worker executes leased cells over one core.System. Zero value fields
// default sanely; construct literally and serve Handler().
type Worker struct {
	// System is this node's simulation substrate. Its fingerprint must
	// match the coordinator's (same core.Config), or every lease is
	// refused with 409.
	System *core.System
	// Store, when non-nil, checkpoints completed cells and serves
	// resumed ones — workers sharing a cache directory make a warm
	// cluster run answer from disk.
	Store *artifact.Store
	// Workers caps the mc trial pool per leased cell (0 = NumCPU).
	Workers int
	// CellDelay, when positive, sleeps after each computed (non-cached)
	// cell before reporting it — a fixed per-node service latency that
	// TestClusterShapesBitIdentical (the 4-vs-1-worker speedup gate) and
	// TestWorkStealing use to emulate node capacity on machines with
	// fewer cores than workers. Zero in production.
	CellDelay time.Duration
	// Logf, when set, receives one line per lease.
	Logf func(format string, args ...any)
}

// Handler exposes the worker protocol: the lease verb plus a liveness
// probe compatible with the daemon's (scripts poll /v1/healthz while a
// node boots).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/worker/lease", w.handleLease)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		workerJSON(rw, http.StatusOK, map[string]string{"status": "ok", "role": "worker"})
	})
	return mux
}

func workerJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

// handleLease validates the lease against this node's substrate, then
// executes the leased cells one at a time — each through the same grid
// engine a local run uses — streaming an NDJSON event per completion so
// the coordinator merges (and checkpoints) cells as they land rather
// than at lease end.
func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxLeaseBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		workerJSON(rw, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decode lease: %v", err)})
		return
	}
	if len(req.Cells) == 0 {
		workerJSON(rw, http.StatusBadRequest, map[string]string{"error": "lease has no cells"})
		return
	}
	spec, err := req.Spec.Canonicalize()
	if err != nil {
		workerJSON(rw, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("spec: %v", err)})
		return
	}
	if fp := spec.Fingerprint(w.System.Fingerprint()); fp != req.Fingerprint {
		// A mismatched fingerprint means this worker's closure (netlists,
		// DTA config, timing tables, spec canonicalization) differs from
		// the coordinator's: its Points would not be bit-identical, so
		// refusing loudly is the only safe answer.
		workerJSON(rw, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("cluster: fingerprint mismatch: worker computes %s, lease carries %s (worker substrate differs from coordinator)", fp, req.Fingerprint),
		})
		return
	}

	st := &leaseStream{}
	grid, err := spec.Grid(w.System, w.Store, w.Workers, st.progress)
	if err != nil {
		workerJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Keys come from a non-resuming plan (no store reads): the execution
	// path below consults the store itself.
	keyGrid := grid
	keyGrid.Resume = false
	plan, err := keyGrid.PlanCells()
	if err != nil {
		workerJSON(rw, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	for _, idx := range req.Cells {
		if idx < 0 || idx >= len(plan) {
			workerJSON(rw, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("cell index %d out of range (grid has %d cells)", idx, len(plan))})
			return
		}
	}
	flusher, ok := rw.(http.Flusher)
	if !ok {
		workerJSON(rw, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	if w.Logf != nil {
		w.Logf("lease %s: %d cells", req.LeaseID, len(req.Cells))
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	st.enc = json.NewEncoder(rw)
	st.flush = flusher
	flusher.Flush()

	ctx := r.Context()
	for _, idx := range req.Cells {
		res, err := grid.RunCells(ctx, []int{idx})
		if err != nil {
			if ctx.Err() != nil {
				// The coordinator hung up (steal completed elsewhere, job
				// canceled, lease deadline): nothing left to tell it.
				return
			}
			st.write(LeaseEvent{Event: "error", Index: idx, Error: err.Error()})
			return
		}
		cr := res[0]
		if w.CellDelay > 0 && !cr.Cached {
			select {
			case <-time.After(w.CellDelay):
			case <-ctx.Done():
				return
			}
		}
		pt := cr.Point
		st.cell(LeaseEvent{Event: "cell", Index: idx, Key: plan[idx].Key, Cached: cr.Cached, Point: &pt})
	}
	st.write(LeaseEvent{Event: "done"})
}

// leaseStream serializes event writes (the engine's progress callback
// races the execution loop) and accumulates the lease-cumulative
// progress baseline as cells settle.
type leaseStream struct {
	mu    sync.Mutex
	enc   *json.Encoder
	flush http.Flusher

	lastProgress                 time.Time
	settledTrials, settledPoints int
	curTrials, curPoints         int
}

// progress relays one engine snapshot (scoped to the cell currently
// executing) as a lease-cumulative event, throttled.
func (s *leaseStream) progress(p mc.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		return // headers not committed yet (plan phase)
	}
	s.curTrials, s.curPoints = p.DoneTrials, p.DonePoints
	now := time.Now()
	if now.Sub(s.lastProgress) < progressInterval {
		return
	}
	s.lastProgress = now
	s.writeLocked(LeaseEvent{
		Event:      "progress",
		DoneTrials: s.settledTrials + p.DoneTrials, TotalTrials: s.settledTrials + p.TotalTrials,
		DonePoints: s.settledPoints + p.DonePoints, TotalPoints: s.settledPoints + p.TotalPoints,
	})
}

// cell settles a completed cell into the progress baseline and flushes
// its event immediately.
func (s *leaseStream) cell(ev LeaseEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settledTrials += ev.Point.Trials
	s.settledPoints++
	s.curTrials, s.curPoints = 0, 0
	s.writeLocked(ev)
}

func (s *leaseStream) write(ev LeaseEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeLocked(ev)
}

func (s *leaseStream) writeLocked(ev LeaseEvent) {
	// Write errors are deliberately dropped: a vanished coordinator
	// shows up as the request context closing, which the execution loop
	// already honours.
	_ = s.enc.Encode(ev)
	s.flush.Flush()
}

// Serve is a convenience for cmd/fisimd's worker mode: serve the worker
// protocol on addr until ctx is canceled, then shut down gracefully.
func Serve(ctx context.Context, addr string, w *Worker) error {
	srv := &http.Server{Addr: addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
