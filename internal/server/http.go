// The HTTP/JSON surface of the batch-simulation service. Routes (all
// under /v1, documented in docs/API.md):
//
//	POST   /v1/jobs             submit a JobSpec; dedups by fingerprint
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        status; ?wait=DUR long-polls for a terminal state
//	GET    /v1/jobs/{id}/result finished result, JSON or CSV (?format= / Accept)
//	GET    /v1/jobs/{id}/events SSE progress stream, terminal event closes it
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            manager/lane counters + system/store cache traffic
//	GET    /v1/healthz          liveness
//
// Clients identify themselves with an X-API-Key header (falling back to
// the remote address, see ClientID); admission refusals — rate limit,
// quota, shed — answer 429 with a Retry-After header derived from queue
// depth and observed throughput.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/report"
)

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	// Deduped marks a submission that was answered by an existing job
	// with the same fingerprint instead of scheduling a new run.
	Deduped bool `json:"deduped"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Jobs Stats `json:"jobs"`
	// Lanes is the scheduler snapshot: per-lane depth, bounds, weights
	// and shed counts, priority order.
	Lanes []LaneStatus `json:"lanes"`
	// RetryAfterSec is the current overload advice — what a shed request
	// would be told right now.
	RetryAfterSec int `json:"retry_after_sec"`
	// Cache is the system's cache-traffic summary (characterizations,
	// golden traces, hazard tables), the same line the CLI tools print.
	Cache string `json:"cache"`
	// Store holds artifact-store hit/miss/put counters when a store is
	// attached.
	Store *artifact.Stats `json:"store,omitempty"`
	// Cluster holds distributed-execution counters when the manager runs
	// on a cluster coordinator backend (fisimd -workers=...).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler exposes a Manager over HTTP. Use it with any http.Server;
// cmd/fisimd wires it to a listener and a drain-on-signal loop.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(m, w, r) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, m.List()) })
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleStatus(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) { handleResult(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) { handleEvents(m, w, r) })
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleCancel(m, w, r) })
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) { handleStats(m, w) })
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		// Admission refusal: shed, rate-limited or over quota. 429 plus
		// the manager's Retry-After advice in whole seconds (ceiling —
		// never optimistic).
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(ov.RetryAfter)))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFinished):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// maxSpecBody bounds a submit body; a JobSpec within the grid-size
// limits is far smaller.
const maxSpecBody = 1 << 20

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode spec: %v", err)})
		return
	}
	var ov *OverloadError
	j, deduped, err := m.SubmitAs(ClientID(r), spec)
	if err != nil {
		if errors.As(err, &ov) || errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
			writeError(w, err)
		} else {
			// Canonicalization errors are client errors.
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
		return
	}
	st, err := m.Status(j.ID)
	if err != nil {
		writeError(w, err)
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{ID: j.ID, Fingerprint: j.Fingerprint, State: st.State, Deduped: deduped})
}

func handleStatus(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("wait: bad duration %q", waitStr)})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		st, err := m.Wait(ctx, id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st, err := m.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultFormat negotiates the result encoding: an explicit ?format=
// wins, then the Accept header, then JSON.
func resultFormat(r *http.Request) (string, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		if f != "json" && f != "csv" {
			return "", fmt.Errorf("format: want json or csv, got %q", f)
		}
		return f, nil
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/csv") {
		return "csv", nil
	}
	return "json", nil
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	format, err := resultFormat(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	doc, err := m.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	_ = report.Write(w, format, doc)
}

func handleStats(m *Manager, w http.ResponseWriter) {
	resp := StatsResponse{
		Jobs:          m.Stats(),
		Lanes:         m.Lanes(),
		RetryAfterSec: ceilSeconds(m.RetryAfter()),
		Cache:         m.System().CacheSummary(),
	}
	if st := m.System().ArtifactStore(); st != nil {
		s := st.Stats()
		resp.Store = &s
	}
	if cr, ok := m.Backend().(ClusterReporter); ok {
		cs := cr.ClusterStats()
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleCancel(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cancelled, err := m.Cancel(id)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := m.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"canceled": cancelled, "state": st.State})
}

// handleEvents streams job progress as Server-Sent Events: one
// "progress" event per coalesced snapshot and, when the job goes
// terminal, a final "done" event carrying the full status, after which
// the stream closes. A client attaching to a terminal job receives the
// "done" event immediately.
func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := m.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(event string, v any) {
		blob, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob)
		flusher.Flush()
	}
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				return
			}
			if p.State.Terminal() {
				if st, err := m.Status(r.PathValue("id")); err == nil {
					emit("done", st)
				} else {
					emit("done", p)
				}
				return
			}
			emit("progress", p)
		case <-r.Context().Done():
			return
		case <-m.Closing():
			// The daemon is draining: end the stream now instead of
			// holding http.Server.Shutdown hostage to this client. The
			// job may still finish; a reconnect (or the store) has it.
			return
		}
	}
}
