// Package mitigate models error-mitigation scenarios on top of the
// Monte-Carlo grid results: given a cell's measured quality
// distribution and fault pressure, it predicts the effective
// application quality and the energy cost of running the same operating
// point under a mitigation scheme — a razor-style detect-and-replay
// pipeline (shadow latches catch timing violations and re-execute the
// window, paying replay energy per detected fault) or an
// ECC/constant-weight-coded datapath (encode/decode logic burns a
// constant energy fraction every cycle but detects and corrects most
// faults in place). The unmitigated scheme is carried alongside as the
// baseline, so the three outcomes of one cell form an energy-vs-quality
// trade-off the report layer folds into Pareto fronts.
//
// Fault pressure per trial comes from the fi hazard tables when the
// cell admits them (fixed benchmark inputs, hazard-capable model kind):
// the expected number of injected faults over the golden query stream
// is the exact per-op sum of marginal injection probabilities
// (DetectionMass), the same marginals first-fault sampling inverts.
// Cells outside the hazard fast path fall back to the measured FI rate
// (FIRate per kCycle x mean kernel cycles).
//
// In the dependency graph, mitigate sits on mc/core/bench/fi/power and
// below report, which renders its Results as Pareto curves.
package mitigate

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fi"
	"repro/internal/mc"
	"repro/internal/power"
)

// Scheme identifies one mitigation model.
type Scheme string

const (
	// SchemeNone is the unmitigated baseline: the cell's measured
	// quality at its measured energy.
	SchemeNone Scheme = "none"
	// SchemeRazor is detect-and-replay: shadow latches detect a
	// coverage fraction of injected faults, and every detected fault
	// re-executes a replay window — energy overhead proportional to the
	// fault count, zero for fault-free cells.
	SchemeRazor Scheme = "razor"
	// SchemeCoded is the ECC/constant-weight-coded datapath: a constant
	// encode/decode energy fraction every cycle, detection and in-place
	// correction of most faults, no replay.
	SchemeCoded Scheme = "coded"
)

// Schemes returns every scheme in evaluation order (baseline first).
func Schemes() []Scheme { return []Scheme{SchemeNone, SchemeRazor, SchemeCoded} }

// Options configure the mitigation models; zero values select the
// defaults documented per field.
type Options struct {
	// Power is the energy model (default power.Default()).
	Power power.Model

	// RazorCoverage is the fraction of injected faults the shadow
	// latches detect (default 0.98 — razor misses only violations
	// landing inside the metastability window).
	RazorCoverage float64
	// ReplayCycles is the pipeline flush + re-execution window charged
	// per detected fault (default 12 cycles).
	ReplayCycles float64

	// CodedDetect is the fraction of injected faults the code detects
	// and corrects in place (default 0.97 — multi-bit aliasing escapes).
	CodedDetect float64
	// CodedEnergyFrac is the constant encode/decode energy overhead as
	// a fraction of base energy (default 0.12).
	CodedEnergyFrac float64
}

func (o Options) withDefaults() Options {
	if o.Power == (power.Model{}) {
		o.Power = power.Default()
	}
	if o.RazorCoverage <= 0 {
		o.RazorCoverage = 0.98
	}
	if o.ReplayCycles <= 0 {
		o.ReplayCycles = 12
	}
	if o.CodedDetect <= 0 {
		o.CodedDetect = 0.97
	}
	if o.CodedEnergyFrac <= 0 {
		o.CodedEnergyFrac = 0.12
	}
	return o
}

// Result is one evaluated (cell, scheme) mitigation outcome.
type Result struct {
	Bench  string         `json:"bench"`
	Model  core.ModelSpec `json:"model"`
	Scheme Scheme         `json:"scheme"`

	// FaultsPerTrial is the expected number of injected faults one
	// trial suffers; HazardExact marks it as the per-op hazard-table
	// sum rather than the FIRate fallback.
	FaultsPerTrial float64 `json:"faults_per_trial"`
	HazardExact    bool    `json:"hazard_exact"`
	// Detected is the expected number of those faults the scheme
	// detects (and corrects) per trial.
	Detected float64 `json:"detected_per_trial"`

	// RawQuality is the cell's unmitigated QualityMean; EffQuality the
	// quality after detect-and-correct repairs the detected fraction of
	// the loss.
	RawQuality float64 `json:"raw_quality"`
	EffQuality float64 `json:"eff_quality"`

	// Energies are per trial, in picojoules.
	BaseEnergyPJ  float64 `json:"base_energy_pj"`
	OverheadPJ    float64 `json:"overhead_pj"`
	TotalEnergyPJ float64 `json:"total_energy_pj"`
}

// EnergyPerCyclePJ converts the power model's total core power at
// (vdd, fMHz) into energy per clock cycle: uW at MHz is exactly pJ per
// cycle.
func EnergyPerCyclePJ(pm power.Model, vdd, fMHz float64) float64 {
	return pm.TotalUW(vdd, fMHz) / fMHz
}

// DetectionMass decomposes the expected injected-fault count of one
// trial over the golden query stream per op: mass[op] is the number of
// occurrences of op in qs times the op's marginal injection probability
// from the hazard table, and total their sum — the exact expectation of
// the number of injecting queries, since each query injects
// independently with its marginal probability. This is the error mass a
// per-op detection code has to cover; the brute-force equivalent (sum
// h.PerOp[q.Op] over every query) agrees to float summation order,
// pinned by the package tests.
func DetectionMass(h *fi.Hazard, qs []cpu.TraceEvent) (perOp []float64, total float64) {
	counts := make([]float64, len(h.PerOp))
	for i := range qs {
		counts[qs[i].Op]++
	}
	perOp = make([]float64, len(h.PerOp))
	for op, n := range counts {
		perOp[op] = n * h.PerOp[op]
		total += perOp[op]
	}
	return perOp, total
}

// Evaluate scores every cell under every scheme. sys may be nil, in
// which case (and for cells outside the hazard fast path) the fault
// pressure falls back to the cell's measured FI rate. inputSeed names
// the benchmark inputs the grid ran on (a grid's Spec.InputSeed; 0
// resolves to the engine default, like a zero Spec). Results are in
// cell order, Schemes() order within a cell.
func Evaluate(sys *core.System, inputSeed int64, cells []mc.CellResult, opt Options) []Result {
	opt = opt.withDefaults()
	if inputSeed == 0 {
		inputSeed = mc.DefaultInputSeed
	}
	out := make([]Result, 0, len(cells)*len(Schemes()))
	for _, c := range cells {
		faults, exact := expectedFaults(sys, inputSeed, c)
		for _, sch := range Schemes() {
			out = append(out, apply(c, sch, faults, exact, opt))
		}
	}
	return out
}

// expectedFaults estimates the injected faults per trial of one cell:
// hazard-table exact where the fast path applies, FIRate-based
// otherwise.
func expectedFaults(sys *core.System, inputSeed int64, c mc.CellResult) (float64, bool) {
	pt := c.Point
	fallback := pt.FIRate / 1000 * pt.KernelCycles
	if sys == nil || c.Model.Kind == "" || c.Model.Kind == "none" {
		return fallback, false
	}
	b, err := bench.ByName(c.Bench)
	if err != nil || b.PerTrialInputs {
		return fallback, false
	}
	spec := c.Model
	spec.FreqMHz = pt.FreqMHz
	h, err := sys.Hazard(b, inputSeed, spec)
	if err != nil {
		return fallback, false
	}
	g, err := sys.Golden(b, inputSeed)
	if err != nil {
		return fallback, false
	}
	_, total := DetectionMass(h, g.Trace.Events)
	return total, true
}

// apply evaluates one scheme on one cell. The razor overhead is exactly
// Detected x (ReplayCycles x energy-per-cycle) — the package tests pin
// the product bit for bit — so fault-free cells carry exactly zero
// razor overhead.
func apply(c mc.CellResult, sch Scheme, faults float64, exact bool, opt Options) Result {
	pt := c.Point
	epc := EnergyPerCyclePJ(opt.Power, c.Model.Vdd, pt.FreqMHz)
	base := pt.KernelCycles * epc
	r := Result{
		Bench: c.Bench, Model: c.Model, Scheme: sch,
		FaultsPerTrial: faults, HazardExact: exact,
		RawQuality: pt.QualityMean, EffQuality: pt.QualityMean,
		BaseEnergyPJ: base,
	}
	switch sch {
	case SchemeRazor:
		r.Detected = opt.RazorCoverage * faults
		r.OverheadPJ = r.Detected * (opt.ReplayCycles * epc)
		r.EffQuality = effQuality(pt.QualityMean, opt.RazorCoverage)
	case SchemeCoded:
		r.Detected = opt.CodedDetect * faults
		r.OverheadPJ = opt.CodedEnergyFrac * base
		r.EffQuality = effQuality(pt.QualityMean, opt.CodedDetect)
	}
	r.TotalEnergyPJ = base + r.OverheadPJ
	return r
}

// effQuality models detect-and-correct: a detected fault's quality
// loss is repaired, so only the escaped fraction of the measured loss
// remains — q_eff = 1 - (1-q)(1-detect), which is exactly q at detect
// 0 and exactly 1 at full detection of a finite loss.
func effQuality(q, detect float64) float64 {
	eff := 1 - (1-q)*(1-detect)
	if eff > 1 {
		return 1
	}
	if eff < 0 {
		return 0
	}
	return eff
}
