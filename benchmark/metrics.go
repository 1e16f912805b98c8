package main

import (
	"math"
	"sort"
	"time"
)

// metric declares one reported number. BENCHMARK.json at the repository
// root repeats these declarations (name, unit, direction and, for the
// end-to-end metrics, the regression bound); a test keeps the two in
// step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to the layer should move.
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them; an "operation" is the unit a user waits
// for in that workload (one sweep command, one grid, one fisimd job).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the traced run's per-layer metrics. Each workload reports
// every one: a layer the workload drives is measured from its traced run
// (spans and counter deltas), every other layer by the probe phase,
// which calls the layer's public entry point on the workload's inputs.
var perLayer = []metric{
	{Name: "dta.characterize_s", Unit: "s", Better: "lower", Moves: "trials_per_s and ops_per_s @ sweep-session (cold sweeps); setup_s @ every workload"},
	{Name: "dta.characterizations", Unit: "count", Better: "lower", Moves: "trials_per_s and ops_per_s @ sweep-session (cold sweeps); setup_s @ every workload"},
	{Name: "dta.load_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps)"},
	{Name: "core.golden_record_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ sweep-session (cold sweeps)"},
	{Name: "core.goldens_recorded", Unit: "count", Better: "lower", Moves: "ops_per_s @ sweep-session (cold sweeps)"},
	{Name: "core.golden_load_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps)"},
	{Name: "cpu.trace_decode_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps)"},
	{Name: "cpu.trace_bytes", Unit: "bytes", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps)"},
	{Name: "core.model_build_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms and ops_per_s @ sweep-session (every sweep builds its models)"},
	{Name: "core.models_built", Unit: "count", Better: "lower", Moves: "op_p50_ms and ops_per_s @ sweep-session (every sweep builds its models)"},
	{Name: "core.hazard_build_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s @ sweep-session (cold sweeps)"},
	{Name: "core.hazard_load_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps)"},
	{Name: "core.hazards_built", Unit: "count", Better: "lower", Moves: "ops_per_s @ sweep-session (cold sweeps)"},
	{Name: "mc.first_trial_s", Unit: "s", Better: "lower", Moves: "ops_per_s @ sweep-session (cold sweeps; the lone-client pipelining gap)"},
	{Name: "cpu.iss_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Moves: "trials_per_s @ trials-faulting"},
	{Name: "fi.first_fault_batch_us", Unit: "us", Better: "lower", Moves: "trials_per_s @ trials-faulting, op_p50_ms @ fisimd-interactive"},
	{Name: "mc.cell_faulting_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s @ trials-faulting and cluster-2w"},
	{Name: "mc.allocs_per_trial", Unit: "count", Better: "lower", Moves: "trials_per_s @ trials-faulting and cluster-2w"},
	{Name: "mc.bytes_per_trial", Unit: "bytes", Better: "lower", Moves: "trials_per_s @ trials-faulting and cluster-2w"},
	{Name: "mc.batch_point_allocs", Unit: "count", Better: "lower", Moves: "trials_per_s @ trials-faulting"},
	{Name: "mc.batch_point_bytes", Unit: "bytes", Better: "lower", Moves: "trials_per_s @ trials-faulting"},
	{Name: "mc.cell_faultfree_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ fisimd-interactive"},
	{Name: "bench.quality_us", Unit: "us", Better: "lower", Moves: "trials_per_s @ trials-faulting"},
	{Name: "artifact.put_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm sweeps write cells) and fisimd-interactive"},
	{Name: "artifact.puts", Unit: "count", Better: "lower", Moves: "op_p50_ms @ sweep-session and fisimd-interactive"},
	{Name: "artifact.bytes_written", Unit: "bytes", Better: "lower", Moves: "op_p50_ms @ sweep-session and fisimd-interactive"},
	{Name: "artifact.get_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ sweep-session (warm and resume sweeps)"},
	{Name: "artifact.hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms @ sweep-session (warm and resume sweeps)"},
	{Name: "report.csv_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ fisimd-interactive"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms and ops_per_s @ fisimd-interactive"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms and ops_per_s @ fisimd-interactive"},
	{Name: "server.backend_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms and ops_per_s @ fisimd-interactive"},
	{Name: "server.result_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms @ fisimd-interactive"},
	{Name: "server.dedup_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s @ fisimd-interactive"},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: "ops_per_s @ fisimd-interactive"},
	{Name: "cluster.lease_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms and trials_per_s @ cluster-2w"},
	{Name: "cluster.leases", Unit: "count", Better: "lower", Moves: "op_p50_ms @ cluster-2w"},
	{Name: "cluster.cells_stolen", Unit: "count", Better: "lower", Moves: "op_p50_ms @ cluster-2w"},
	{Name: "cluster.cells_reassigned", Unit: "count", Better: "lower", Moves: "op_p50_ms @ cluster-2w"},
	{Name: "cluster.cells_duplicate", Unit: "count", Better: "lower", Moves: "trials_per_s @ cluster-2w"},
	{Name: "cluster.useful_ratio", Unit: "ratio", Better: "higher", Moves: "trials_per_s @ cluster-2w"},
	{Name: "cluster.idle_ratio", Unit: "ratio", Better: "lower", Moves: "op_p50_ms and trials_per_s @ cluster-2w"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: traced op_p50_ms over untraced op_p50_ms of the same workload"},
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// tailPerMille lists the percentiles, in tenths of a percent, that a
// timing may be reported at beyond its median, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest percentile (in tenths of a
// percent) of tailPerMille with at least minBeyond of n samples beyond
// it; ok is false when even the lowest has too few.
func tailPercentile(n int) (perMille int, ok bool) {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= minBeyond*1000 {
			return pm, true
		}
	}
	return 0, false
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the perMille percentile of xs by the nearest-rank
// rule; xs is not modified.
func nearestRank(xs []float64, perMille int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (perMille*len(s) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// timing summarizes one set of latency samples the way every timing is
// reported: median, the highest percentile with enough samples beyond
// it, and the sample count.
type timing struct {
	N       int     `json:"n"`
	P50ms   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`
}

func summarize(ds []time.Duration) timing {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	t := timing{N: len(ds), P50ms: median(xs)}
	if pm, ok := tailPercentile(len(ds)); ok {
		t.TailPct = float64(pm) / 10
		t.TailMs = nearestRank(xs, pm)
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
