// Request canonicalization and content-hash job identity. A JobSpec is
// the wire format of one batch-simulation request; Canonicalize
// validates it, expands shorthand (frequency ranges), and fills every
// default explicitly, so two requests that mean the same experiment
// serialize to the same canonical form. Fingerprint then hashes that
// form together with the serving system's configuration fingerprint —
// the same closure-spelling discipline as the artifact-store keys — and
// the manager dedups jobs on it.

package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fi"
	"repro/internal/mc"
)

// JobSpec is the wire format of a batch-simulation request: the axes of
// an experiment grid (each list optional, defaulting to one canonical
// value) plus the Monte-Carlo parameters of mc.Spec. Frequencies come
// either as an explicit list ("freqs") or as a range
// ("freq_lo"/"freq_hi"/"freq_step"), not both.
type JobSpec struct {
	// Benches lists benchmark kernels by name (required, non-empty).
	Benches []string `json:"benches"`
	// Models lists fault model kinds: "none", "A", "B", "B+", "C"
	// (default ["C"]).
	Models []string `json:"models,omitempty"`
	// Vdds lists supply voltages in volts (default [0.7]).
	Vdds []float64 `json:"vdds,omitempty"`
	// Sigmas lists supply-noise sigmas in volts (default [0]).
	Sigmas []float64 `json:"sigmas,omitempty"`
	// Freqs lists clock frequencies in MHz; alternatively FreqLo/FreqHi/
	// FreqStep describe an inclusive range. One of the two forms is
	// required.
	Freqs    []float64 `json:"freqs,omitempty"`
	FreqLo   float64   `json:"freq_lo,omitempty"`
	FreqHi   float64   `json:"freq_hi,omitempty"`
	FreqStep float64   `json:"freq_step,omitempty"`

	// Trials per data point (default 100); TrialsMin/TrialsMax enable
	// adaptive allocation exactly as in mc.Spec.
	Trials    int `json:"trials,omitempty"`
	TrialsMin int `json:"trials_min,omitempty"`
	TrialsMax int `json:"trials_max,omitempty"`
	// Seed is the master Monte-Carlo seed (default 1); InputSeed fixes
	// benchmark inputs (default 42).
	Seed      int64 `json:"seed,omitempty"`
	InputSeed int64 `json:"input_seed,omitempty"`
	// Mode selects the trial path: "auto" (batched first-fault
	// sampling, the default everywhere including the server) or "full"
	// (per-trial ISS execution). "first-fault"/"firstfault" and
	// "scan"/"replay" are accepted as aliases of "auto" and "full",
	// whose results they match exactly; canonicalization rewrites them,
	// so an alias dedups onto its canonical mode.
	Mode string `json:"mode,omitempty"`
	// Semantics is the fault semantics: "flip-bit" (default) or
	// "stale-capture". Sampling is model C's endpoint sampling:
	// "independent" (default) or "joint".
	Semantics string `json:"semantics,omitempty"`
	Sampling  string `json:"sampling,omitempty"`
	// WatchdogFactor bounds faulty runs at this multiple of the golden
	// cycle count (default 4).
	WatchdogFactor float64 `json:"watchdog_factor,omitempty"`

	// Priority selects the scheduling lane: "interactive" or "batch"
	// (default "batch"). It shapes when the job runs, never what it
	// computes, so it is deliberately excluded from the dedup
	// fingerprint: the same experiment submitted at two priorities is
	// still one execution (and a queued batch job is promoted when an
	// interactive duplicate arrives).
	Priority string `json:"priority,omitempty"`
}

// validKinds are the fault model kinds the core factory instantiates.
var validKinds = map[string]bool{"none": true, "A": true, "B": true, "B+": true, "C": true}

// Request size bounds: one malformed or hostile submission must not be
// able to stall or OOM the daemon. MaxFreqs bounds a single frequency
// axis (explicit or range-expanded) and MaxCells the whole grid's cell
// count — far above any real experiment (the paper's largest figure is
// a few hundred cells) while keeping canonicalization O(small).
const (
	MaxFreqs = 1 << 16
	MaxCells = 1 << 20
	// MaxTrials bounds trials and trials_max per cell: the engine
	// preallocates a per-point results slice of that length.
	MaxTrials = 1 << 20
	// MaxWatchdogFactor keeps the faulty-run cycle bound well inside
	// uint64 when multiplied by any golden cycle count.
	MaxWatchdogFactor = 1 << 20
)

// Canonicalize validates the spec and returns its canonical form:
// shorthand expanded, every default written out, and enum spellings
// normalized. Two requests meaning the same experiment canonicalize to
// identical values, which is what makes fingerprint dedup sound; the
// returned error is a client error (a malformed request), never a
// server state.
func (s JobSpec) Canonicalize() (JobSpec, error) {
	c := s
	if len(c.Benches) == 0 {
		return c, fmt.Errorf("benches: at least one benchmark required")
	}
	// Normalization below rewrites elements; keep the caller's slice
	// intact.
	c.Benches = append([]string(nil), s.Benches...)
	for i, n := range c.Benches {
		b, err := bench.ByName(n)
		if err != nil {
			return c, fmt.Errorf("benches[%d]: %w", i, err)
		}
		c.Benches[i] = b.Name // canonical spelling
	}
	if len(c.Models) == 0 {
		c.Models = []string{"C"}
	}
	for i, k := range c.Models {
		if !validKinds[k] {
			return c, fmt.Errorf("models[%d]: unknown fault model %q (want none, A, B, B+ or C)", i, k)
		}
	}
	if len(c.Vdds) == 0 {
		c.Vdds = []float64{0.7}
	}
	if len(c.Sigmas) == 0 {
		c.Sigmas = []float64{0}
	}
	switch {
	case len(c.Freqs) > 0:
		if c.FreqLo != 0 || c.FreqHi != 0 || c.FreqStep != 0 {
			return c, fmt.Errorf("freqs and freq_lo/freq_hi/freq_step are mutually exclusive")
		}
	case c.FreqStep > 0 && c.FreqLo > 0 && c.FreqHi >= c.FreqLo:
		// Bound the expansion before performing it: the count check is
		// O(1), the expansion is not.
		if n := (c.FreqHi-c.FreqLo)/c.FreqStep + 1; !(n <= MaxFreqs) {
			return c, fmt.Errorf("freq range expands to %g points (max %d)", math.Floor(n), MaxFreqs)
		}
		// Expand the range into the explicit list, so a range request and
		// its expansion share a fingerprint.
		c.Freqs = mc.FreqRange(c.FreqLo, c.FreqHi, c.FreqStep)
		c.FreqLo, c.FreqHi, c.FreqStep = 0, 0, 0
	default:
		return c, fmt.Errorf("frequencies required: give freqs or freq_lo <= freq_hi with freq_step > 0")
	}
	if len(c.Freqs) > MaxFreqs {
		return c, fmt.Errorf("freqs: %d points (max %d)", len(c.Freqs), MaxFreqs)
	}
	for i, f := range c.Freqs {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return c, fmt.Errorf("freqs[%d]: invalid frequency %v", i, f)
		}
	}
	if cells := len(c.Benches) * len(c.Models) * len(c.Vdds) * len(c.Sigmas) * len(c.Freqs); cells > MaxCells {
		return c, fmt.Errorf("grid has %d cells (max %d)", cells, MaxCells)
	}
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.Trials > MaxTrials || c.TrialsMax > MaxTrials {
		return c, fmt.Errorf("trials: at most %d per cell", MaxTrials)
	}
	if c.TrialsMin > 0 && c.TrialsMax <= 0 {
		return c, fmt.Errorf("trials_min has no effect without trials_max (adaptive mode)")
	}
	if c.TrialsMax > 0 && c.TrialsMin <= 0 {
		c.TrialsMin = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InputSeed == 0 {
		c.InputSeed = 42
	}
	mode, err := mc.ParseMode(c.Mode)
	if err != nil {
		return c, fmt.Errorf("mode: %w", err)
	}
	c.Mode = mode.String()
	switch c.Semantics {
	case "", "flip-bit":
		c.Semantics = "flip-bit"
	case "stale-capture":
	default:
		return c, fmt.Errorf("semantics: unknown %q (want flip-bit or stale-capture)", c.Semantics)
	}
	switch c.Sampling {
	case "", "independent":
		c.Sampling = "independent"
	case "joint":
	default:
		return c, fmt.Errorf("sampling: unknown %q (want independent or joint)", c.Sampling)
	}
	if c.WatchdogFactor <= 0 {
		c.WatchdogFactor = 4
	}
	if c.WatchdogFactor > MaxWatchdogFactor || math.IsNaN(c.WatchdogFactor) {
		return c, fmt.Errorf("watchdog_factor: at most %d", MaxWatchdogFactor)
	}
	switch c.Priority {
	case "", LaneBatch:
		c.Priority = LaneBatch
	case LaneInteractive:
	default:
		return c, fmt.Errorf("priority: unknown %q (want %s or %s)", c.Priority, LaneInteractive, LaneBatch)
	}
	return c, nil
}

// Fingerprint hashes a canonical spec together with the serving
// system's configuration fingerprint (the full core.Config, the same
// closure the artifact-store cell keys spell out). Jobs dedup on it:
// equal fingerprints are by construction the same experiment on the
// same substrate, so they may share one execution and one result.
// Priority is zeroed before hashing — it affects scheduling, not
// results, so the same experiment at two priorities must dedup.
func (s JobSpec) Fingerprint(sysFingerprint string) string {
	s.Priority = ""
	blob, err := json.Marshal(s)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("server: spec marshal: %v", err))
	}
	h := sha256.Sum256([]byte(sysFingerprint + "\x00" + string(blob)))
	return hex.EncodeToString(h[:])
}

// mode returns the parsed trial mode of a canonical spec.
func (s JobSpec) mode() mc.Mode {
	m, _ := mc.ParseMode(s.Mode)
	return m
}

// Grid lowers a canonical spec onto the mc grid engine. The benchmark
// names must already be canonical (Canonicalize validates them); the
// store (may be nil) enables cell checkpointing and warm resume, which
// is what makes a deduped resubmission of a completed grid answer from
// disk instead of re-running trials. It is exported for the cluster
// layer: the coordinator plans a job's cells from the same Grid the
// in-process backend would run, and every worker lowers the identical
// canonical spec onto its own System — same fingerprint, same cell
// keys, bit-identical Points.
func (s JobSpec) Grid(sys *core.System, store *artifact.Store, workers int, onProgress func(mc.Progress)) (mc.Grid, error) {
	benches := make([]*bench.Benchmark, len(s.Benches))
	for i, n := range s.Benches {
		b, err := bench.ByName(n)
		if err != nil {
			return mc.Grid{}, err
		}
		benches[i] = b
	}
	sem := fi.FlipBit
	if s.Semantics == "stale-capture" {
		sem = fi.StaleCapture
	}
	samp := fi.Independent
	if s.Sampling == "joint" {
		samp = fi.Joint
	}
	return mc.Grid{
		Spec: mc.Spec{
			System:         sys,
			Model:          core.ModelSpec{Sem: sem, Sampling: samp},
			Trials:         s.Trials,
			TrialsMin:      s.TrialsMin,
			TrialsMax:      s.TrialsMax,
			Seed:           s.Seed,
			Mode:           s.mode(),
			InputSeed:      s.InputSeed,
			WatchdogFactor: s.WatchdogFactor,
			Workers:        workers,
			Progress:       onProgress,
		},
		Axes: mc.Axes{
			Benches: benches,
			Kinds:   s.Models,
			Vdds:    s.Vdds,
			Sigmas:  s.Sigmas,
			Freqs:   s.Freqs,
		},
		Store:  store,
		Resume: store != nil,
	}, nil
}
