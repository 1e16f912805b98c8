package mitigate

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/mc"
	"repro/internal/power"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

func system() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
		sys = core.New(cfg)
	})
	return sys
}

func cellAt(t *testing.T, model core.ModelSpec, fMHz float64, trials int) mc.CellResult {
	t.Helper()
	spec := mc.Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  model,
		Trials: trials,
		Seed:   11,
	}
	pt, err := mc.Run(spec, fMHz)
	if err != nil {
		t.Fatal(err)
	}
	m := model
	m.FreqMHz = fMHz
	return mc.CellResult{Bench: "median", Model: m, Point: pt}
}

// TestRazorOverheadExactProduct pins the razor energy accounting bit
// for bit: the replay overhead of a cell is exactly (detected faults) x
// (replay window cycles x energy per cycle), nothing folded in.
func TestRazorOverheadExactProduct(t *testing.T) {
	c := cellAt(t, core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, 880, 60)
	if c.Point.FIRate == 0 {
		t.Fatal("test cell injected nothing; pick a higher frequency")
	}
	opt := Options{}.withDefaults()
	rs := Evaluate(system(), 0, []mc.CellResult{c}, opt)
	var razor *Result
	for i := range rs {
		if rs[i].Scheme == SchemeRazor {
			razor = &rs[i]
		}
	}
	if razor == nil {
		t.Fatal("no razor result")
	}
	epc := EnergyPerCyclePJ(opt.Power, 0.7, 880)
	wantDetected := opt.RazorCoverage * razor.FaultsPerTrial
	if razor.Detected != wantDetected {
		t.Errorf("detected = %v, want exactly %v", razor.Detected, wantDetected)
	}
	if want := wantDetected * (opt.ReplayCycles * epc); razor.OverheadPJ != want {
		t.Errorf("razor overhead = %v, want exactly detected x replay-window energy = %v",
			razor.OverheadPJ, want)
	}
	if razor.TotalEnergyPJ != razor.BaseEnergyPJ+razor.OverheadPJ {
		t.Errorf("total %v != base %v + overhead %v",
			razor.TotalEnergyPJ, razor.BaseEnergyPJ, razor.OverheadPJ)
	}
	if razor.EffQuality < razor.RawQuality {
		t.Errorf("razor lowered quality: %v -> %v", razor.RawQuality, razor.EffQuality)
	}
}

// TestDetectionMassMatchesBruteForce checks the per-op aggregation of
// the coded-datapath error mass against the brute-force per-query sum
// over the golden stream: same expectation, different summation
// grouping, agreeing to 1e-12 relative.
func TestDetectionMassMatchesBruteForce(t *testing.T) {
	b := bench.Median()
	spec := core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, FreqMHz: 880}
	h, err := system().Hazard(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := system().Golden(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	perOp, total := DetectionMass(h, g.Trace.Events)
	if total <= 0 {
		t.Fatal("no error mass at a faulting operating point")
	}
	var brute float64
	for _, ev := range g.Trace.Events {
		brute += h.PerOp[ev.Op]
	}
	if rel := math.Abs(total-brute) / brute; rel > 1e-12 {
		t.Errorf("aggregated mass %v vs brute-force %v: relative error %v > 1e-12",
			total, brute, rel)
	}
	var sum float64
	for _, m := range perOp {
		sum += m
	}
	if math.Abs(sum-total)/total > 1e-12 {
		t.Errorf("per-op masses sum to %v, total says %v", sum, total)
	}
}

// TestZeroFaultCellsHaveZeroRazorOverhead: a clean operating point
// detects nothing and replays nothing — razor overhead exactly zero,
// quality exactly preserved at 1.
func TestZeroFaultCellsHaveZeroRazorOverhead(t *testing.T) {
	c := cellAt(t, core.ModelSpec{Kind: "none"}, 700, 10)
	rs := Evaluate(nil, 0, []mc.CellResult{c}, Options{})
	if len(rs) != len(Schemes()) {
		t.Fatalf("got %d results, want %d", len(rs), len(Schemes()))
	}
	for _, r := range rs {
		if r.FaultsPerTrial != 0 {
			t.Errorf("%s: clean cell reports %v faults/trial", r.Scheme, r.FaultsPerTrial)
		}
		if r.EffQuality != 1 {
			t.Errorf("%s: clean cell effective quality %v, want exactly 1", r.Scheme, r.EffQuality)
		}
		if r.Scheme != SchemeCoded && r.OverheadPJ != 0 {
			t.Errorf("%s: clean cell carries overhead %v pJ, want exactly 0", r.Scheme, r.OverheadPJ)
		}
	}
}

// TestCodedOverheadIsConstantFraction: the coded datapath pays its
// encode/decode energy every cycle, faults or not.
func TestCodedOverheadIsConstantFraction(t *testing.T) {
	c := cellAt(t, core.ModelSpec{Kind: "none"}, 700, 10)
	opt := Options{}.withDefaults()
	rs := Evaluate(nil, 0, []mc.CellResult{c}, opt)
	for _, r := range rs {
		if r.Scheme != SchemeCoded {
			continue
		}
		if want := opt.CodedEnergyFrac * r.BaseEnergyPJ; r.OverheadPJ != want {
			t.Errorf("coded overhead = %v, want exactly %v", r.OverheadPJ, want)
		}
	}
}

// TestHazardExactBeatsFallback: with a System, hazard-capable cells get
// the table-exact fault mass; without one, the FIRate fallback.
func TestHazardExactBeatsFallback(t *testing.T) {
	c := cellAt(t, core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, 880, 60)
	exact := Evaluate(system(), 42, []mc.CellResult{c}, Options{})
	if !exact[0].HazardExact {
		t.Error("hazard-capable cell did not use the table-exact mass")
	}
	fallback := Evaluate(nil, 42, []mc.CellResult{c}, Options{})
	if fallback[0].HazardExact {
		t.Error("nil system claimed hazard exactness")
	}
	if fallback[0].FaultsPerTrial != c.Point.FIRate/1000*c.Point.KernelCycles {
		t.Errorf("fallback mass %v, want FIRate-derived %v",
			fallback[0].FaultsPerTrial, c.Point.FIRate/1000*c.Point.KernelCycles)
	}
	// Deep in the failure region the observed FIRate undercounts (the
	// sampled trials stop at their first fault), so the table-exact
	// unconditional mass dominates the fallback — but both must agree
	// the point is faulting.
	if e, f := exact[0].FaultsPerTrial, fallback[0].FaultsPerTrial; e <= 0 || f <= 0 || e < f {
		t.Errorf("hazard-exact mass %v should be positive and at least the FIRate-observed %v", e, f)
	}
}

func TestEffQualityBounds(t *testing.T) {
	if q := effQuality(0.5, 0); q != 0.5 {
		t.Errorf("no detection changed quality: %v", q)
	}
	if q := effQuality(0.5, 1); q != 1 {
		t.Errorf("full detection of finite loss = %v, want 1", q)
	}
	if q := effQuality(1, 0.5); q != 1 {
		t.Errorf("perfect raw quality degraded to %v", q)
	}
	if q := effQuality(0, 0.9); math.Abs(q-0.9) > 1e-15 {
		t.Errorf("zero raw quality with 0.9 detection = %v, want 0.9", q)
	}
}

func TestEnergyPerCyclePJ(t *testing.T) {
	pm := power.Default()
	// 15.0 uW/MHz active at 0.7 V with 3% leakage: total/f is
	// independent of f and just above the active density.
	e := EnergyPerCyclePJ(pm, 0.7, 700)
	if e < 15.0 || e > 16.0 {
		t.Errorf("energy per cycle at 0.7 V = %v pJ, want ~15.5", e)
	}
	if e2 := EnergyPerCyclePJ(pm, 0.7, 900); math.Abs(e2-e) > 1e-12 {
		t.Errorf("energy per cycle depends on frequency: %v vs %v", e, e2)
	}
}
