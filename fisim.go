// Package repro is a reproduction of "Statistical Fault Injection for
// Impact-Evaluation of Timing Errors on Application Performance"
// (Constantin, Wang, Karakonstantis, Burg, Chattopadhyay; DAC 2016).
//
// It provides a gate-level-characterized statistical fault-injection
// framework for a 32-bit OpenRISC-flavoured core: generated and
// calibrated ALU netlists, static and dynamic timing analysis, the
// paper's injection models A/B/B+/C, a cycle-accurate ISS with
// fault-injection hooks, the four benchmark kernels of the case study,
// and a Monte-Carlo harness that regenerates every table and figure of
// the paper's evaluation.
//
// This root package is a thin facade over the internal packages; see
// examples/ for usage and DESIGN.md for the architecture.
package repro

import (
	"io"
	"net/http"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/experiments"
	"repro/internal/fi"
	"repro/internal/mc"
	"repro/internal/mitigate"
	"repro/internal/report"
	"repro/internal/server"
)

// Re-exported core types; see the internal packages for full
// documentation.
type (
	// Config is the full system configuration (circuit, DTA, Vdd-delay,
	// power, CPU timing, non-ALU safe limit).
	Config = core.Config
	// System is one instantiated simulation stack.
	System = core.System
	// ModelSpec selects a fault-injection model and operating point.
	ModelSpec = core.ModelSpec
	// Benchmark is one workload with golden model and error metric.
	Benchmark = bench.Benchmark
	// Spec describes a Monte-Carlo experiment configuration, including
	// adaptive trial allocation (TrialsMin/TrialsMax) and an optional
	// Progress callback.
	Spec = mc.Spec
	// Point is one aggregated (configuration, frequency) data point.
	Point = mc.Point
	// Progress is a grid-engine progress snapshot delivered to
	// Spec.Progress after every completed trial.
	Progress = mc.Progress
	// Profile overrides DTA operand generators per ALU unit.
	Profile = dta.Profile
	// Grid evaluates a Spec over the cross product of Axes on the shared
	// worker pool, with optional cell checkpointing to an ArtifactStore.
	Grid = mc.Grid
	// Axes lists experiment grid dimensions (benchmarks, model kinds,
	// voltages, sigmas, operand profiles, frequencies); empty axes
	// collapse onto the base Spec.
	Axes = mc.Axes
	// CellResult is one evaluated grid cell with its coordinate.
	CellResult = mc.CellResult
	// ArtifactStore is a persistent on-disk cache of characterizations,
	// golden traces and completed grid cells.
	ArtifactStore = artifact.Store
	// Report is a machine-readable result document (JSON/CSV).
	Report = report.Document
	// ReportMeta describes the run that produced a Report.
	ReportMeta = report.Meta
	// ReportSeries is one labelled point series of a Report.
	ReportSeries = report.Series
	// MitigationScheme names one error-mitigation model (none, razor
	// detect-and-replay, coded datapath).
	MitigationScheme = mitigate.Scheme
	// MitigationOptions configures the mitigation models (power model,
	// razor coverage and replay window, coded detection and energy
	// overhead).
	MitigationOptions = mitigate.Options
	// MitigationResult is one evaluated (cell, scheme) outcome:
	// effective quality and per-trial energy under the scheme.
	MitigationResult = mitigate.Result
	// ParetoReport is the energy-vs-quality trade-off document rendered
	// from mitigation results.
	ParetoReport = report.ParetoDoc
	// ParetoSeries is one (benchmark, model, Vdd, sigma) group of a
	// ParetoReport with its flagged Pareto front.
	ParetoSeries = report.ParetoSeries
)

// Fault semantics and sampling modes for ModelSpec.
const (
	FlipBit      = fi.FlipBit
	StaleCapture = fi.StaleCapture
	Independent  = fi.Independent
	Joint        = fi.Joint
)

// Trial estimators for Spec.Mode: batched first-fault sampling where a
// shared golden trace applies (the default) or full per-trial ISS
// execution. The -mode flags and the job spec's mode field also accept
// "first-fault" (= auto) and "scan" (= full), aliases whose results are
// identical.
const (
	ModeAuto = mc.ModeAuto
	ModeFull = mc.ModeFull
)

// DefaultConfig returns the paper's case-study parameters (28 nm core,
// 707 MHz STA limit at 0.7 V, 8 kCycle DTA characterization).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSystem builds and calibrates a simulation stack.
func NewSystem(cfg Config) *System { return core.New(cfg) }

// Benchmarks returns the paper's application kernels (Table 1).
func Benchmarks() []*Benchmark { return bench.All() }

// BenchmarkByName resolves any application or micro kernel by name.
func BenchmarkByName(name string) (*Benchmark, error) { return bench.ByName(name) }

// Run evaluates one Monte-Carlo data point at the given frequency (MHz).
// Benchmarks with fixed inputs run, by default, on batched first-fault
// sampling: the model's per-query injection probability is
// marginalized over the noise distribution once per (golden trace,
// model), every trial's first-fault cycle is drawn from it, and only
// faulting trials fork into full cycle-accurate simulation. Results are
// deterministic per Spec.Seed and statistically equivalent to full
// execution, which Spec.Mode = ModeFull selects instead.
func Run(spec Spec, fMHz float64) (Point, error) { return mc.Run(spec, fMHz) }

// Sweep evaluates a configuration over a frequency list — the
// single-axis case of the grid engine. All (frequency, trial) work
// items of the sweep share one worker pool, one cached model per
// operating point, and one cached golden trace, and results are
// bit-identical to evaluating each frequency on its own for a fixed
// Spec.Seed. For multi-axis experiments construct a Grid directly.
func Sweep(spec Spec, freqs []float64) ([]Point, error) { return mc.Sweep(spec, freqs) }

// OpenArtifactStore opens (creating if necessary) a persistent artifact
// cache directory; attach it with System.AttachStore and/or Grid.Store.
// A warm store lets repeated runs skip DTA characterization, golden
// trace recording, and (for resumed grids) completed cells entirely.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return artifact.Open(dir) }

// SeriesFromCells groups grid cells into labelled report series
// (consecutive cells differing only in frequency fold into one series).
func SeriesFromCells(cells []CellResult) []ReportSeries { return report.FromCells(cells) }

// WriteReport encodes a result document as "json" or "csv".
func WriteReport(w io.Writer, format string, d *Report) error { return report.Write(w, format, d) }

// PoFF locates the point of first failure in a sweep.
func PoFF(points []Point) (float64, bool) { return mc.PoFF(points) }

// EvaluateMitigation scores every grid cell under every mitigation
// scheme (baseline, razor detect-and-replay, coded datapath): expected
// fault pressure from the fi hazard tables where available, effective
// quality after detect-and-correct, and per-trial energy including the
// scheme's overhead. sys may be nil to skip the hazard-exact path.
func EvaluateMitigation(sys *System, inputSeed int64, cells []CellResult, opt MitigationOptions) []MitigationResult {
	return mitigate.Evaluate(sys, inputSeed, cells, opt)
}

// ParetoFromResults folds mitigation results into the energy-vs-quality
// Pareto document, flagging each group's non-dominated operating
// points.
func ParetoFromResults(meta ReportMeta, rs []MitigationResult) *ParetoReport {
	return report.Pareto(meta, rs)
}

// WriteParetoReport encodes a Pareto document as "json" or "csv".
func WriteParetoReport(w io.Writer, format string, d *ParetoReport) error {
	return report.WritePareto(w, format, d)
}

// The batch-simulation service layer (the fisimd daemon as a library):
// a JobManager runs grid jobs asynchronously with content-fingerprint
// dedup on one shared System, and ServerHandler exposes it over the
// HTTP/JSON API documented in docs/API.md.
type (
	// ServerOptions configures a JobManager (system, artifact store,
	// queue and lane bounds, tenant admission limits, job parallelism,
	// retention).
	ServerOptions = server.Options
	// JobManager owns the job table, dedup index and bounded queue.
	JobManager = server.Manager
	// JobSpec is the wire format of one batch-simulation request.
	JobSpec = server.JobSpec
	// JobStatus is a job's public status snapshot.
	JobStatus = server.Status
	// JobState is a job lifecycle state (queued/running/done/failed/
	// canceled).
	JobState = server.State
	// JobProgress is one streamed job progress snapshot.
	JobProgress = server.Progress
	// JobBackend executes canonical job specs for a JobManager; the
	// default runs grids on the in-process worker pool, and tests swap
	// in fakes (see ChaosBackend).
	JobBackend = server.Backend
	// ChaosBackend wraps a JobBackend with injected delays and mid-grid
	// faults for resilience testing.
	ChaosBackend = server.ChaosBackend
	// TenantConfig is one client's admission limits (rate, burst,
	// active-job quota).
	TenantConfig = server.TenantConfig
	// TenantsConfig is the per-client admission table with defaults.
	TenantsConfig = server.TenantsConfig
	// LaneConfig bounds and weights one priority lane.
	LaneConfig = server.LaneConfig
)

// NewJobManager starts a job manager and its runner goroutines; drain
// it with JobManager.Shutdown.
func NewJobManager(o ServerOptions) *JobManager { return server.NewManager(o) }

// ServerHandler exposes a JobManager over HTTP (see docs/API.md for the
// API: submit/status/result/cancel, SSE progress, stats).
func ServerHandler(m *JobManager) http.Handler { return server.Handler(m) }

// ExperimentOptions configures the table/figure runners.
type ExperimentOptions = experiments.Options

// ReproduceAll regenerates every table and figure at the given scale
// (1 = paper-fidelity trial counts), writing text tables to w.
func ReproduceAll(sys *System, w io.Writer, scale float64, seed int64) error {
	o := ExperimentOptions{System: sys, Out: w, Scale: scale, Seed: seed}
	if _, err := experiments.Table1(o); err != nil {
		return err
	}
	experiments.Table2(o)
	if _, err := experiments.Fig1(o); err != nil {
		return err
	}
	if _, err := experiments.Fig2(o); err != nil {
		return err
	}
	if _, err := experiments.Fig4(o); err != nil {
		return err
	}
	if _, err := experiments.Fig5(o); err != nil {
		return err
	}
	if _, err := experiments.Fig6(o); err != nil {
		return err
	}
	if _, err := experiments.Fig7(o); err != nil {
		return err
	}
	return nil
}
