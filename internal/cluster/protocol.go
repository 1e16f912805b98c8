// The coordinator↔worker wire protocol of distributed grid execution.
// One verb: POST /v1/worker/lease hands a worker a batch of cell
// indices into a job's canonical grid enumeration; the response is a
// newline-delimited JSON stream of events — throttled progress
// snapshots, one "cell" event per completed cell carrying its Point and
// content-addressed key, and a terminal "done" (or "error"). The
// protocol moves only numbers, never model state: worker and
// coordinator each lower the identical canonical JobSpec onto their own
// core.System, and the fingerprint handshake (HTTP 409 on mismatch)
// guarantees both systems spell out the same closure — which is what
// makes a remotely computed Point bit-identical to a local one, and a
// duplicate completion (steal races, lease replays) harmless by
// construction.
package cluster

import (
	"repro/internal/mc"
	"repro/internal/server"
)

// LeaseRequest is the body of POST /v1/worker/lease.
type LeaseRequest struct {
	// LeaseID names the lease in logs and progress attribution.
	LeaseID string `json:"lease_id"`
	// Fingerprint is the job fingerprint the coordinator computed
	// (canonical spec hashed with its system fingerprint). The worker
	// recomputes it against its own system and refuses the lease with
	// 409 if they disagree — a worker on a different substrate would
	// produce different Points, silently corrupting the merge.
	Fingerprint string `json:"fingerprint"`
	// Spec is the job's canonical spec; the worker lowers it onto its
	// own system exactly as the in-process backend would.
	Spec server.JobSpec `json:"spec"`
	// Cells are indices into the grid's canonical Cells() enumeration.
	Cells []int `json:"cells"`
}

// LeaseEvent is one line of the lease response stream.
type LeaseEvent struct {
	// Event is "progress", "cell", "done" or "error".
	Event string `json:"event"`

	// Progress fields (event "progress"): cumulative within the lease —
	// cells served from the worker's store plus the live counts of the
	// lease's computed cells, which all run at once. TotalPoints counts
	// the cells the event covers, so the coordinator can replace their
	// opening budgets with TotalTrials, which grows under adaptive
	// allocation.
	DoneTrials  int `json:"done_trials,omitempty"`
	TotalTrials int `json:"total_trials,omitempty"`
	DonePoints  int `json:"done_points,omitempty"`
	TotalPoints int `json:"total_points,omitempty"`

	// Cell fields (event "cell"): the completed cell's index in the
	// canonical enumeration, its content-addressed key (the coordinator
	// asserts it against its own plan — equal keys are bit-identical
	// results), whether the worker served it from its checkpoint store,
	// and the Point itself. Only the Point crosses the wire; the
	// coordinator reconstructs Bench and Model from its own enumeration,
	// and Go's float64 JSON encoding round-trips exactly.
	Index  int       `json:"index"`
	Key    string    `json:"key,omitempty"`
	Cached bool      `json:"cached,omitempty"`
	Point  *mc.Point `json:"point,omitempty"`

	// Error (event "error") is a deterministic execution failure — an
	// invalid operating point, a trial-level error — that would equally
	// fail a single-node run. Transport failures never appear here; they
	// surface as a cut stream.
	Error string `json:"error,omitempty"`
}
