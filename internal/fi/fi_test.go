package fi

import (
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/timing"
)

var (
	fixOnce sync.Once
	fixALU  *circuit.ALU
	fixCh   *dta.Characterizer
)

func fixture() (*circuit.ALU, *dta.Characterizer) {
	fixOnce.Do(func() {
		fixALU = circuit.New(circuit.DefaultConfig())
		fixCh = dta.NewCharacterizer(fixALU, timing.DefaultVddDelay(),
			dta.Config{Cycles: 768, Seed: 5})
	})
	return fixALU, fixCh
}

func TestApplySemantics(t *testing.T) {
	// Flip semantics XORs the violation mask.
	out, fl, n := apply(FlipBit, stats.NewRand(1), 0b101, true, 0b111, 0b000, true, false)
	if out != 0b010 || fl != false || n != 3 {
		t.Errorf("flip: out=%b flag=%v n=%d", out, fl, n)
	}
	// Stale capture takes the previous latch value on violated bits.
	out, fl, n = apply(StaleCapture, nil, 0b101, true, 0b111, 0b000, true, false)
	if out != 0b010 || fl != false || n != 3 {
		t.Errorf("stale: out=%b flag=%v n=%d", out, fl, n)
	}
	// Stale capture with identical previous value changes nothing but
	// still counts the violations.
	out, fl, n = apply(StaleCapture, nil, 0b101, false, 0b111, 0b111, true, true)
	if out != 0b111 || fl != true || n != 2 {
		t.Errorf("stale-same: out=%b flag=%v n=%d", out, fl, n)
	}
	// No violations: untouched.
	out, fl, n = apply(FlipBit, nil, 0, false, 42, 7, true, false)
	if out != 42 || fl != true || n != 0 {
		t.Errorf("none: out=%d flag=%v n=%d", out, fl, n)
	}
}

func TestModelANeverSilent(t *testing.T) {
	m := &ModelA{Prob: 0.5}
	inj := m.NewTrial(stats.NewTrial(1))
	faults := 0
	for i := 0; i < 1000; i++ {
		_, _, n := inj.Inject(isa.OpAdd, 0, 0, false, false)
		faults += n
	}
	// Expected about 16 flips per call.
	if faults < 14000 || faults > 18000 {
		t.Errorf("model A faults = %d, want about 16000", faults)
	}
	// Zero probability: silent.
	z := (&ModelA{Prob: 0}).NewTrial(stats.NewTrial(1))
	if _, _, n := z.Inject(isa.OpAdd, 5, 0, false, false); n != 0 {
		t.Errorf("prob 0 injected")
	}
}

func TestModelAFlagOnlyOnCompares(t *testing.T) {
	m := &ModelA{Prob: 1}
	inj := m.NewTrial(stats.NewTrial(1))
	_, fl, n := inj.Inject(isa.OpAdd, 0, 0, false, false)
	if fl != false || n != circuit.Width {
		t.Errorf("non-compare: flag %v, %d violations; want the result bits only", fl, n)
	}
	// A violated flag flop captures a uniformly random value under
	// FlipBit, so the violation shows in the count, not the flag value.
	if _, _, n = inj.Inject(isa.OpSfeq, 0, 0, false, false); n != circuit.NumEndpoints {
		t.Errorf("compare with prob 1: %d violations, want every endpoint including the flag", n)
	}
}

func TestModelBHardThreshold(t *testing.T) {
	alu, _ := fixture()
	vm := timing.DefaultVddDelay()
	sta := alu.STALimitMHz()

	// Below the STA limit: never injects.
	below := NewModelB(alu, vm, 0.7, sta-1, 0, FlipBit)
	injB := below.NewTrial(stats.NewTrial(2))
	for i := 0; i < 2000; i++ {
		if _, _, n := injB.Inject(isa.OpAdd, 0, 0, false, false); n != 0 {
			t.Fatalf("model B injected below STA limit")
		}
	}
	// Just above: injects on every ALU instruction, independent of type
	// (the model's documented pessimism).
	above := NewModelB(alu, vm, 0.7, sta+1, 0, FlipBit)
	injA := above.NewTrial(stats.NewTrial(2))
	for _, op := range []isa.Op{isa.OpAdd, isa.OpXor, isa.OpSll} {
		if _, _, n := injA.Inject(op, 0, 0, false, false); n == 0 {
			t.Fatalf("model B did not inject for %v above the STA limit", op)
		}
	}
}

func TestModelBPlusFirstFIAnchors(t *testing.T) {
	alu, _ := fixture()
	vm := timing.DefaultVddDelay()
	for _, c := range []struct {
		sigma   float64
		wantMHz float64
	}{
		{0.010, 661},
		{0.025, 588},
	} {
		m := NewModelB(alu, vm, 0.7, 707, c.sigma, FlipBit)
		got := m.FirstFIMHz()
		if math.Abs(got-c.wantMHz) > 0.01*c.wantMHz {
			t.Errorf("sigma %v: first FI at %v MHz, want about %v", c.sigma, got, c.wantMHz)
		}
	}
	// Model B (no noise): first FI at the STA limit itself.
	m := NewModelB(alu, vm, 0.7, 707, 0, FlipBit)
	if got := m.FirstFIMHz(); math.Abs(got-707) > 1 {
		t.Errorf("model B first FI %v, want 707", got)
	}
}

func TestModelBPlusRareOnsetInjection(t *testing.T) {
	// Just above the B+ first-FI point, injections require a noise
	// sample at the saturation atom: the rate must be low (paper: about
	// 10 FI per kCycle) rather than every cycle.
	alu, _ := fixture()
	vm := timing.DefaultVddDelay()
	m := NewModelB(alu, vm, 0.7, 663, 0.010, FlipBit)
	inj := m.NewTrial(stats.NewTrial(3))
	events := 0
	const cycles = 50000
	for i := 0; i < cycles; i++ {
		if _, _, n := inj.Inject(isa.OpAdd, 0, 0, false, false); n > 0 {
			events++
		}
	}
	rate := float64(events) / cycles * 1000
	if rate == 0 {
		t.Fatalf("no injections just above the first-FI point")
	}
	if rate > 60 {
		t.Errorf("onset FI rate %v per kCycle too high for the saturation-atom mechanism", rate)
	}
}

func TestModelCSilentBelowOnset(t *testing.T) {
	_, ch := fixture()
	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 700, Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.NewTrial(stats.NewTrial(4))
	for i := 0; i < 5000; i++ {
		for _, op := range []isa.Op{isa.OpAdd, isa.OpMul, isa.OpSfgts} {
			if _, _, n := inj.Inject(op, 0, 0, false, false); n != 0 {
				t.Fatalf("model C injected for %v below every onset", op)
			}
		}
	}
}

func TestModelCInstructionAware(t *testing.T) {
	// At a frequency between the mul and add onsets, mul must see
	// faults while add stays clean: the instruction awareness that
	// models A/B/B+ lack.
	_, ch := fixture()
	mulCh, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	addCh, err := ch.ForOp(isa.OpAdd, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	f := (mulCh.OnsetMHz() + addCh.OnsetMHz()) / 2
	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f, Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.NewTrial(stats.NewTrial(5))
	mulFaults, addFaults := 0, 0
	for i := 0; i < 200000; i++ {
		if _, _, n := inj.Inject(isa.OpMul, 0, 0, false, false); n > 0 {
			mulFaults++
		}
		if _, _, n := inj.Inject(isa.OpAdd, 0, 0, false, false); n > 0 {
			addFaults++
		}
	}
	if mulFaults == 0 {
		t.Errorf("mul saw no faults between the onsets")
	}
	if addFaults != 0 {
		t.Errorf("add saw %d faults below its onset", addFaults)
	}
}

func TestModelCRateMatchesCDF(t *testing.T) {
	// With no noise, the per-cycle violation probability of a single
	// op must match 1 - prod(1 - p_e) from the CDFs.
	_, ch := fixture()
	mulCh, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	f := mulCh.OnsetMHz() * 1.05
	period := circuit.PeriodPs(f)
	want := 1.0
	for e := 0; e < mulCh.NumEndpoints(); e++ {
		want *= 1 - mulCh.CDF(e).ViolationProb(period)
	}
	want = 1 - want

	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f, Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.NewTrial(stats.NewTrial(6))
	events := 0
	const n = 300000
	for i := 0; i < n; i++ {
		if _, _, c := inj.Inject(isa.OpMul, 0, 0, false, false); c > 0 {
			events++
		}
	}
	got := float64(events) / n
	if math.Abs(got-want) > 0.15*want+0.001 {
		t.Errorf("per-cycle fault probability %v, want %v (15%%)", got, want)
	}
}

func TestModelCNoiseLowersOnset(t *testing.T) {
	// With noise, faults appear below the zero-noise onset.
	_, ch := fixture()
	mulCh, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	f := mulCh.OnsetMHz() * 0.97 // below onset, within 2-sigma reach
	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f, Sigma: 0.010})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.NewTrial(stats.NewTrial(7))
	events := 0
	for i := 0; i < 200000; i++ {
		if _, _, c := inj.Inject(isa.OpMul, 0, 0, false, false); c > 0 {
			events++
		}
	}
	if events == 0 {
		t.Errorf("noise did not move the onset down")
	}
}

func TestModelCJointSampling(t *testing.T) {
	_, ch := fixture()
	mulCh, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	f := mulCh.OnsetMHz() * 1.05
	mj, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f, Sampling: Joint})
	if err != nil {
		t.Fatal(err)
	}
	inj := mj.NewTrial(stats.NewTrial(8))
	events := 0
	for i := 0; i < 100000; i++ {
		if _, _, c := inj.Inject(isa.OpMul, 0, 0, false, false); c > 0 {
			events++
		}
	}
	if events == 0 {
		t.Errorf("joint sampling produced no faults above onset")
	}
}

func TestModelCFlagOnlyOnCompares(t *testing.T) {
	_, ch := fixture()
	cmpCh, err := ch.ForOp(isa.OpSfgts, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Run fast enough that everything violates.
	f := cmpCh.OnsetMHz() * 1.6
	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.NewTrial(stats.NewTrial(9))
	flagFlips := 0
	for i := 0; i < 3000; i++ {
		_, fl, _ := inj.Inject(isa.OpSfgts, 0, 0, false, false)
		if fl {
			flagFlips++
		}
	}
	if flagFlips == 0 {
		t.Errorf("compares never flipped the flag at high over-scaling")
	}
}

func TestNamesAndNull(t *testing.T) {
	alu, ch := fixture()
	vm := timing.DefaultVddDelay()
	if (&ModelA{}).Name() != "A" {
		t.Errorf("model A name")
	}
	if NewModelB(alu, vm, 0.7, 707, 0, FlipBit).Name() != "B" {
		t.Errorf("model B name")
	}
	if NewModelB(alu, vm, 0.7, 707, 0.01, FlipBit).Name() != "B+" {
		t.Errorf("model B+ name")
	}
	mc, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 707})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Name() != "C" {
		t.Errorf("model C name")
	}
	var null NullModel
	inj := null.NewTrial(nil)
	if r, fl, n := inj.Inject(isa.OpAdd, 9, 1, true, false); r != 9 || !fl || n != 0 {
		t.Errorf("null model altered state")
	}
	if Independent.String() != "independent" || Joint.String() != "joint" {
		t.Errorf("sampling names")
	}
	if FlipBit.String() != "flip-bit" || StaleCapture.String() != "stale-capture" {
		t.Errorf("semantics names")
	}
}
