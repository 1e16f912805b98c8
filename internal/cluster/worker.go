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
	"runtime"
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
	// Workers caps the mc trial pool per lease (0 = NumCPU).
	Workers int
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
// executes all the leased cells at once through one run of the same
// grid engine a local run uses, streaming an NDJSON event per cell as
// the engine emits it, so the coordinator merges (and checkpoints)
// cells as they land rather than at lease end.
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

	// Snapshots arrive one at a time under the engine's lock, so the send
	// below, the channel's only one, never blocks. Hand on, throttled,
	// the latest snapshot and every one that closes a cell.
	progress := make(chan mc.Progress, 1)
	var lastAt time.Time
	var lastPoints int
	grid, err := spec.Grid(w.System, w.Store, w.Workers, func(p mc.Progress) {
		if now := time.Now(); now.Sub(lastAt) >= progressInterval || p.DonePoints > lastPoints {
			lastAt, lastPoints = now, p.DonePoints
			select {
			case <-progress: // replaced by the newer snapshot
			default:
			}
			progress <- p
		}
	})
	if err != nil {
		workerJSON(rw, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// One engine runs the whole lease: each index must name a distinct
	// cell, or every copy of a repeated one would be computed at once.
	seen := make([]bool, len(grid.Cells()))
	for _, idx := range req.Cells {
		if idx < 0 || idx >= len(seen) {
			workerJSON(rw, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("cell index %d out of range (grid has %d cells)", idx, len(seen))})
			return
		}
		if seen[idx] {
			workerJSON(rw, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("cell index %d leased twice", idx)})
			return
		}
		seen[idx] = true
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
	enc := json.NewEncoder(rw)
	write := func(ev LeaseEvent) {
		_ = enc.Encode(ev) // a vanished coordinator cancels ctx, ending the run
		flusher.Flush()
	}
	flusher.Flush()

	// The engine emits cells on its own goroutines; only the handler's
	// writes the response (a handler may abort only on its own goroutine,
	// and must not write once it has returned). The buffer holds every
	// cell, so an emit never blocks, even after the handler has gone.
	ctx := r.Context()
	cells := make(chan LeaseEvent, len(req.Cells))
	var res []mc.CellResult
	go func() {
		defer close(cells)
		res, err = grid.RunCells(ctx, req.Cells, func(pos int, cr mc.CellResult) {
			cells <- LeaseEvent{Event: "cell", Index: req.Cells[pos], Key: cr.Key, Cached: cr.Cached, Point: &cr.Point}
			// Let the handler write the event now: on a busy host it would
			// otherwise wait for this trial worker's time slice to end.
			runtime.Gosched()
		})
	}()
	// Progress is lease-cumulative: the engine's snapshot covers every
	// computed cell of the lease, cached cells count from their events.
	var cachedTrials, cachedPoints int
	for {
		select {
		case ev, ok := <-cells:
			if !ok {
				if ctx.Err() != nil {
					// The coordinator hung up (steal completed elsewhere,
					// job canceled, lease deadline): nothing left to tell it.
					return
				}
				if err != nil { // the cells before the failed one were emitted
					write(LeaseEvent{Event: "error", Index: req.Cells[len(res)], Error: err.Error()})
					return
				}
				write(LeaseEvent{Event: "done"})
				return
			}
			if ev.Cached {
				cachedTrials += ev.Point.Trials
				cachedPoints++
			}
			write(ev)
		case p := <-progress:
			write(LeaseEvent{
				Event:      "progress",
				DoneTrials: cachedTrials + p.DoneTrials, TotalTrials: cachedTrials + p.TotalTrials,
				DonePoints: cachedPoints + p.DonePoints, TotalPoints: cachedPoints + p.TotalPoints,
			})
		}
	}
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
