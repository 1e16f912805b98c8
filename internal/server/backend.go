// The trial-execution backend boundary. The manager schedules and
// accounts for jobs; a Backend actually runs them: GridBackend is the
// in-process mc worker pool, and internal/cluster's coordinator fans
// the same specs out to remote workers. The boundary is also where the
// chaos tests inject slow and flaky execution without touching the
// manager.

package server

import (
	"context"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mc"
)

// Backend executes one canonical job spec to completion. Run must
// honour ctx (the job's cancel context), report progress through
// onProgress (never blocking: the manager feeds a coalescing
// broadcaster), and return every completed cell or the first error.
// Returning ctx's error marks the job canceled; any other error marks
// it failed with that cause.
type Backend interface {
	Run(ctx context.Context, spec JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error)
}

// GridBackend is the in-process backend: it lowers the spec onto the mc
// grid engine over one shared core.System, checkpointing cells to the
// artifact store when one is attached (which is what makes a warm
// resubmission after a mid-grid failure complete from cached cells).
type GridBackend struct {
	System *core.System
	// Store, when non-nil, receives completed cells and serves resumed
	// ones. It should be the store attached to System.
	Store *artifact.Store
	// Workers caps the mc worker pool per job (0 = NumCPU via mc).
	Workers int
}

// Run executes the spec's grid.
func (b GridBackend) Run(ctx context.Context, spec JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	grid, err := spec.Grid(b.System, b.Store, b.Workers, onProgress)
	if err != nil {
		return nil, err
	}
	return grid.RunContext(ctx)
}

// ClusterStats counts distributed-execution traffic for backends that
// fan work out to remote workers. The type lives here — not in
// internal/cluster — because the stats surface (/v1/stats) must not
// depend on the cluster package (cluster imports server for JobSpec and
// Backend, never the reverse).
type ClusterStats struct {
	// WorkersKnown is the configured worker set; WorkersLive excludes
	// workers marked dead after a permanently failed lease.
	WorkersKnown int `json:"workers_known"`
	WorkersLive  int `json:"workers_live"`
	// Leases counts lease calls issued; LeaseFailures those that died
	// (timeout, worker loss, protocol error) and had their unfinished
	// cells reassigned.
	Leases        int64 `json:"leases"`
	LeaseFailures int64 `json:"lease_failures"`
	// Cell traffic: CellsLeased counts cells handed to workers
	// (re-leases included), CellsCompleted distinct cells finished,
	// CellsStolen cells an idle worker took over from another worker's
	// in-flight lease, CellsReassigned cells requeued after a lease
	// failure, and CellsDuplicate completions discarded because the
	// cell's key was already done (harmless by construction: equal keys
	// are bit-identical results).
	CellsLeased     int64 `json:"cells_leased"`
	CellsCompleted  int64 `json:"cells_completed"`
	CellsStolen     int64 `json:"cells_stolen"`
	CellsReassigned int64 `json:"cells_reassigned"`
	CellsDuplicate  int64 `json:"cells_duplicate"`
}

// ClusterReporter is implemented by backends that execute on a worker
// cluster; /v1/stats includes their counters when present.
type ClusterReporter interface {
	ClusterStats() ClusterStats
}
