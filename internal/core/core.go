// Package core assembles the paper's simulation stack (Fig. 3): the
// generated, calibrated ALU netlists, the DTA characterizer, the
// Vdd-delay and noise models, the power model, and a factory for the
// fault-injection models A/B/B+/C bound to an operating point
// (frequency, supply voltage, noise sigma).
//
// core is the stack's assembly point in the dependency graph:
// everything below it (circuit, gates, dta, timing, power, fi, cpu,
// mem) is bound together here, and everything above it (mc,
// experiments, server, the cmd tools) reaches the stack through a
// System — including the model, golden-trace and hazard-table caches
// that make repeated experiments cheap, and their persistence through
// internal/artifact.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/mem"
	"repro/internal/memo"
	"repro/internal/power"
	"repro/internal/timing"
)

// Config carries every tunable of the reproduction, defaulting to the
// paper's case study.
type Config struct {
	Circuit circuit.Config
	DTA     dta.Config
	Vdd     timing.VddDelay
	Power   power.Model
	CPU     cpu.Config
	// NonALUSafeMHz is the frequency below which all non-ALU paths are
	// guaranteed safe at the reference voltage (the constraint strategy
	// of [14]; 1.15 GHz at 0.7 V in the paper).
	NonALUSafeMHz float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Circuit:       circuit.DefaultConfig(),
		DTA:           dta.DefaultConfig(),
		Vdd:           timing.DefaultVddDelay(),
		Power:         power.Default(),
		CPU:           cpu.DefaultConfig(),
		NonALUSafeMHz: 1150,
	}
}

// System is one instantiated simulation stack. Its configuration is
// immutable after construction and it is safe for concurrent use:
// violation grids cache inside Char, beside only the raw
// characterizations its At callers asked for (an independent-sampling
// model C keeps none), and instantiated fault models, golden traces,
// hazard tables and program digests cache inside the system itself,
// each in a singleflight memo.Map (see Model, Golden, Hazard and
// BenchDigest); golden traces and hazard tables reach it through an
// artifact.Cache, which puts the attached store behind it.
type System struct {
	Cfg  Config
	ALU  *circuit.ALU
	Char *dta.Characterizer

	models  memo.Map[modelKey, fi.Model]
	goldens artifact.Cache[goldenKey, *Golden]
	hazards artifact.Cache[hazardKey, *fi.Hazard]
	digests memo.Map[goldenKey, string]

	modelsBuilt atomic.Int64 // fault models actually instantiated
}

// New builds and calibrates a system.
func New(cfg Config) *System {
	alu := circuit.New(cfg.Circuit)
	return &System{
		Cfg:  cfg,
		ALU:  alu,
		Char: dta.NewCharacterizer(alu, cfg.Vdd, cfg.DTA),
		goldens: artifact.Cache[goldenKey, *Golden]{
			Kind:   artifact.KindGoldenTrace,
			Encode: func(g *Golden) ([]byte, error) { return cpu.EncodeTrace(g.Trace) },
		},
		hazards: artifact.Cache[hazardKey, *fi.Hazard]{
			Kind:   artifact.KindHazard,
			Encode: func(h *fi.Hazard) ([]byte, error) { return encodeHazard(h), nil },
		},
	}
}

// AttachStore wires a persistent artifact store into the system: DTA
// characterizations, golden traces and hazard tables are loaded from it
// before being computed and saved to it afterwards. Call right after
// New, before any simulation. The store is purely an accelerator —
// every artifact key spells out the full configuration fingerprint, so
// a mismatched cache directory degrades to cold-start, never to wrong
// results.
func (s *System) AttachStore(st *artifact.Store) {
	s.Char.SetStore(st)
	s.goldens.Store = st
	s.hazards.Store = st
}

// ArtifactStore returns the attached store (nil when running purely
// in-memory).
func (s *System) ArtifactStore() *artifact.Store { return s.goldens.Store }

// Fingerprint canonically encodes the full system configuration. It is
// the prefix of every artifact cache key derived from this system
// (fmt sorts map-valued fields by key, so the string is deterministic).
func (s *System) Fingerprint() string { return fmt.Sprintf("%+v", s.Cfg) }

// GoldenRecordedCount reports how many golden traces this system
// actually executed and recorded (cache misses all the way through).
func (s *System) GoldenRecordedCount() int64 { return s.goldens.Built() }

// ModelsBuiltCount reports how many fault-model instances the Model
// cache actually constructed — with the singleflight cache, concurrent
// requests for one spec count a single build. Explicit NewModel calls
// bypass the cache and are not counted.
func (s *System) ModelsBuiltCount() int64 { return s.modelsBuilt.Load() }

// CacheSummary renders one line of artifact-cache traffic, for the CLI
// tools' stderr diagnostics (and the CI warm-start assertion).
func (s *System) CacheSummary() string {
	return fmt.Sprintf("characterizations: %d computed, %d loaded; grids: %d built, %d loaded; goldens: %d recorded, %d loaded; hazards: %d built, %d loaded; models: %d built",
		s.Char.ComputedCount(), s.Char.LoadedCount(),
		s.Char.GridsBuilt(), s.Char.GridsLoaded(),
		s.goldens.Built(), s.goldens.Loaded(),
		s.hazards.Built(), s.hazards.Loaded(),
		s.modelsBuilt.Load())
}

// STALimitMHz returns the static timing limit at supply v (707 MHz at
// 0.7 V by calibration, scaled by the Vdd-delay factor elsewhere).
func (s *System) STALimitMHz(v float64) float64 {
	return s.ALU.STALimitMHz() / s.Cfg.Vdd.Factor(v)
}

// NonALUSafeMHz returns the non-ALU safe frequency at supply v. Above
// it, instructions outside the ALU data path are no longer protected and
// the simulation refuses the operating point rather than report
// meaningless results.
func (s *System) NonALUSafeMHz(v float64) float64 {
	return s.Cfg.NonALUSafeMHz / s.Cfg.Vdd.Factor(v)
}

// DefaultProbA is model A's per-endpoint flip probability when a
// caller names the model without one.
const DefaultProbA = 1e-6

// ModelSpec selects and parameterizes a fault-injection model.
type ModelSpec struct {
	Kind    string // "none", "A", "B", "B+", "C"
	Vdd     float64
	FreqMHz float64
	Sigma   float64 // supply-noise sigma in volts
	// ProbA is model A's fixed per-endpoint flip probability. Grid
	// cells of kind A replace a zero with DefaultProbA.
	ProbA float64
	// Profile selects operand-width-matched characterizations (model C).
	Profile dta.Profile
	// Sem is the fault semantics at violated endpoints.
	Sem fi.Semantics
	// Sampling selects model C's endpoint sampling strategy.
	Sampling fi.Sampling
}

// modelKey is the cache key for instantiated models. Profile (a map) is
// folded into a canonical string so the key is comparable.
type modelKey struct {
	Kind     string
	Vdd      float64
	FreqMHz  float64
	Sigma    float64
	ProbA    float64
	Profile  string
	Sem      fi.Semantics
	Sampling fi.Sampling
}

// profileString canonically encodes a Profile (sorted by unit) so that
// equal profiles hash to the same model cache entry.
func profileString(p dta.Profile) string {
	if len(p) == 0 {
		return ""
	}
	units := make([]int, 0, len(p))
	for u := range p {
		units = append(units, int(u))
	}
	sort.Ints(units)
	var b strings.Builder
	for _, u := range units {
		fmt.Fprintf(&b, "%d=%s;", u, p[circuit.UnitKind(u)])
	}
	return b.String()
}

func (spec ModelSpec) key() modelKey {
	return modelKey{
		Kind:     spec.Kind,
		Vdd:      spec.Vdd,
		FreqMHz:  spec.FreqMHz,
		Sigma:    spec.Sigma,
		ProbA:    spec.ProbA,
		Profile:  profileString(spec.Profile),
		Sem:      spec.Sem,
		Sampling: spec.Sampling,
	}
}

// Model instantiates the spec against this system, reusing a cached
// instance when the same spec was built before. Models are shareable and
// behave as immutable. A model C instance fills each DTA key's table
// (characterization, grid, hazard marginal) on first use, so one cached
// instance per (config, model, profile), rather than one per data point,
// keeps that work for every later query of the sweep.
//
// The cache is per-key singleflight: concurrent callers of one spec
// block on a single build and share its result (including a build
// error — construction is deterministic for a fixed system config, so
// a failed spec fails identically on every retry), while distinct
// specs build in parallel, never serialized on the map mutex. Callers
// must not mutate spec.Profile after the call.
func (s *System) Model(spec ModelSpec) (fi.Model, error) {
	return s.models.Get(spec.key(), func() (fi.Model, error) {
		m, err := s.NewModel(spec)
		if err == nil {
			s.modelsBuilt.Add(1)
		}
		return m, err
	})
}

// NewModel instantiates the spec against this system without consulting
// the model cache. It is the original uncached construction path, kept
// for benchmarks and determinism tests that compare against per-point
// rebuilding. The timing-based models reject a non-positive or
// non-finite frequency, a non-finite supply, a negative or non-finite
// sigma, a supply at or below threshold, and operating points beyond
// the non-ALU safe limit.
func (s *System) NewModel(spec ModelSpec) (fi.Model, error) {
	switch spec.Kind {
	case "", "none":
		return fi.NullModel{}, nil
	case "A":
		return &fi.ModelA{Prob: spec.ProbA, Sem: spec.Sem}, nil
	}
	if !(spec.FreqMHz > 0) || math.IsInf(spec.FreqMHz, 0) || math.IsNaN(spec.Vdd) || math.IsInf(spec.Vdd, 0) ||
		!(spec.Sigma >= 0) || math.IsInf(spec.Sigma, 0) {
		return nil, fmt.Errorf("core: invalid operating point %v MHz, %v V, sigma %v V", spec.FreqMHz, spec.Vdd, spec.Sigma)
	}
	if spec.Vdd <= s.Cfg.Vdd.Vt {
		return nil, fmt.Errorf("core: supply %v V at or below threshold", spec.Vdd)
	}
	if spec.FreqMHz > s.NonALUSafeMHz(spec.Vdd) {
		return nil, fmt.Errorf("core: %v MHz exceeds the non-ALU safe limit %.0f MHz at %v V",
			spec.FreqMHz, s.NonALUSafeMHz(spec.Vdd), spec.Vdd)
	}
	switch spec.Kind {
	case "B":
		return fi.NewModelB(s.ALU, s.Cfg.Vdd, spec.Vdd, spec.FreqMHz, 0, spec.Sem), nil
	case "B+":
		return fi.NewModelB(s.ALU, s.Cfg.Vdd, spec.Vdd, spec.FreqMHz, spec.Sigma, spec.Sem), nil
	case "C":
		return fi.NewModelC(s.Char, fi.ModelCConfig{
			Vdd:      spec.Vdd,
			FreqMHz:  spec.FreqMHz,
			Sigma:    spec.Sigma,
			Profile:  spec.Profile,
			Sem:      spec.Sem,
			Sampling: spec.Sampling,
		})
	}
	return nil, fmt.Errorf("core: unknown model kind %q", spec.Kind)
}

// Golden is one cached fault-free reference execution of a benchmark on
// this system: the assembled program, its verified output words, and the
// recorded golden trace with architectural checkpoints, whose Events are
// the fi-facing query stream. It is immutable and shared across every
// Monte-Carlo trial of the benchmark.
type Golden struct {
	Prog  *asm.Program
	Want  []uint32
	Trace *cpu.Trace
	// Queries is Trace.Events itself, the same backing array, not a
	// copy. It is kept only because the benchmark harness
	// (benchmark/probe.go) reads the query stream under this name; code
	// in this module reads Trace.Events.
	Queries []cpu.TraceEvent
}

// goldenKey identifies a cached golden trace. The CPU timing config —
// the only other input to the recorded execution — is fixed per System.
type goldenKey struct {
	bench     string
	inputSeed int64
}

// goldenWatchdog bounds the recording run; mirrors the Monte-Carlo
// harness's golden-run budget.
const goldenWatchdog = 100_000_000

// Golden records (or returns the cached) golden trace of the benchmark
// built with inputSeed. Like Model, it is per-key singleflight:
// concurrent callers of one (benchmark, seed) share a single recorded
// execution (or a single store load) instead of each recording their
// own, and repeated lookups return the same instance, so a whole sweep
// — and every later sweep of the same benchmark — pays for one recorded
// execution. Distinct benchmarks record in parallel. Benchmarks with
// per-trial inputs have no single golden run and are rejected.
func (s *System) Golden(b *bench.Benchmark, inputSeed int64) (*Golden, error) {
	if b.PerTrialInputs {
		return nil, fmt.Errorf("core: %s regenerates inputs per trial; no shared golden trace", b.Name)
	}
	return s.goldens.Get(goldenKey{bench: b.Name, inputSeed: inputSeed},
		func() (string, error) { return s.goldenStoreKey(b, inputSeed) },
		func(payload []byte) (*Golden, bool) { return decodeGolden(b, inputSeed, payload) },
		func() (*Golden, error) { return s.recordGolden(b, inputSeed) })
}

// BenchDigest hashes the benchmark's actual program content at an input
// seed — the generated source and the expected output words — so cache
// keys survive benchmark *code* changes, not just renames: editing a
// kernel in internal/bench invalidates every artifact recorded against
// the old program instead of silently replaying a stale trace. Building
// a program costs milliseconds, so the digest is memoized per System
// under the same (benchmark, input seed) key as Golden: golden, hazard
// and cell keys, and every cluster lease's plan, share one build.
func (s *System) BenchDigest(b *bench.Benchmark, inputSeed int64) (string, error) {
	return s.digests.Get(goldenKey{bench: b.Name, inputSeed: inputSeed}, func() (string, error) {
		src, want, err := b.Build(inputSeed)
		if err != nil {
			return "", err
		}
		h := sha256.New()
		io.WriteString(h, b.Name)
		h.Write([]byte{0})
		io.WriteString(h, src)
		h.Write([]byte{0})
		for _, w := range want {
			h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		return hex.EncodeToString(h.Sum(nil)[:16]), nil
	})
}

// goldenStoreKey spells out every input the recorded trace depends on:
// the benchmark program content (via BenchDigest) and its input seed,
// the CPU timing configuration (which determines every cycle count and
// checkpoint boundary), the checkpoint interval, and the recording
// watchdog.
func (s *System) goldenStoreKey(b *bench.Benchmark, inputSeed int64) (string, error) {
	digest, err := s.BenchDigest(b, inputSeed)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cpu=%+v|bench=%s|prog=%s|inputSeed=%d|ckpt=%d|watchdog=%d",
		s.Cfg.CPU, b.Name, digest, inputSeed, cpu.DefaultCheckpointInterval, goldenWatchdog), nil
}

// decodeGolden rebuilds a golden trace from its persisted recording.
// The program and expected outputs are rebuilt from the benchmark
// definition (assembly is cheap and deterministic); only the expensive
// part — the recorded execution — comes from disk. A payload without
// the trace codec's magic, a trace that did not exit cleanly (or
// predates checkpoint-at-0 recording) and a program that no longer
// builds are all misses: the caller records fresh.
func decodeGolden(b *bench.Benchmark, inputSeed int64, payload []byte) (*Golden, bool) {
	tr, err := cpu.DecodeTrace(payload)
	if err != nil || tr.Status != cpu.StatusExited || len(tr.Checkpoints) == 0 {
		return nil, false
	}
	src, want, err := b.Build(inputSeed)
	if err != nil {
		return nil, false
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, false
	}
	return &Golden{Prog: p, Want: want, Trace: tr, Queries: tr.Events}, true
}

// GoldenRun executes the benchmark fault-free without caching or trace
// recording and returns the assembled program, its verified output
// words, and the cycle count — the uncached sibling of Golden, used for
// benchmarks whose inputs change per trial and for the full reference
// execution path.
func (s *System) GoldenRun(b *bench.Benchmark, inputSeed int64) (*asm.Program, []uint32, uint64, error) {
	g, cycles, err := s.execGolden(b, inputSeed, false)
	if err != nil {
		return nil, nil, 0, err
	}
	return g.Prog, g.Want, cycles, nil
}

// recordGolden executes the benchmark fault-free with trace recording;
// the trace's events are the query stream.
func (s *System) recordGolden(b *bench.Benchmark, inputSeed int64) (*Golden, error) {
	g, _, err := s.execGolden(b, inputSeed, true)
	if err != nil {
		return nil, err
	}
	g.Queries = g.Trace.Events
	return g, nil
}

// execGolden is the one golden-run implementation: build, assemble,
// simulate fault-free, and validate the outputs against the benchmark's
// golden model. With record set it also captures the cpu.Trace.
func (s *System) execGolden(b *bench.Benchmark, inputSeed int64, record bool) (*Golden, uint64, error) {
	src, want, err := b.Build(inputSeed)
	if err != nil {
		return nil, 0, err
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %s: %w", b.Name, err)
	}
	m := mem.New()
	c := cpu.New(m, nil, s.Cfg.CPU)
	if err := c.Load(p); err != nil {
		return nil, 0, err
	}
	if record {
		c.StartTrace(cpu.DefaultCheckpointInterval)
	}
	c.SetWatchdog(goldenWatchdog)
	st := c.Run()
	tr := c.StopTrace()
	if st != cpu.StatusExited {
		return nil, 0, fmt.Errorf("core: %s: golden run ended %v (%v)", b.Name, st, c.TrapErr())
	}
	got, err := b.Outputs(m, p)
	if err != nil {
		return nil, 0, err
	}
	for i := range got {
		if got[i] != want[i] {
			return nil, 0, fmt.Errorf("core: %s: golden output mismatch at %d", b.Name, i)
		}
	}
	return &Golden{Prog: p, Want: want, Trace: tr}, c.Cycles, nil
}
