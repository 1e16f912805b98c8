package dta

import (
	"math"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/isa"
	"repro/internal/timing"
)

// Shared small-characterization fixture: building the ALU and running DTA
// is the expensive part, so tests share one characterizer with a short
// kernel.
var (
	fixOnce sync.Once
	fixALU  *circuit.ALU
	fixCh   *Characterizer
)

func fixture() *Characterizer {
	fixOnce.Do(func() {
		fixALU = circuit.New(circuit.DefaultConfig())
		fixCh = NewCharacterizer(fixALU, timing.DefaultVddDelay(),
			Config{Cycles: 768, Seed: 5})
	})
	return fixCh
}

func TestGenRegistry(t *testing.T) {
	for n := range gens {
		if _, err := Gen(n); err != nil {
			t.Errorf("registered gen %q not resolvable", n)
		}
	}
	if _, err := Gen("nope"); err == nil {
		t.Errorf("unknown gen must error")
	}
}

func TestDefaultGenAssignments(t *testing.T) {
	cases := map[isa.Op]string{
		isa.OpAdd: "u32", isa.OpAddi: "imm16", isa.OpSub: "u32",
		isa.OpMul: "u32", isa.OpMuli: "imm16",
		isa.OpAndi: "zimm16", isa.OpOri: "zimm16",
		isa.OpSlli: "amt5", isa.OpSrl: "amt5",
		isa.OpSfgts: "u32", isa.OpSfgtsi: "imm16",
	}
	for op, want := range cases {
		if got := DefaultGen(op); got != want {
			t.Errorf("DefaultGen(%v) = %q, want %q", op, got, want)
		}
	}
}

func TestProfileOverride(t *testing.T) {
	p := Profile{circuit.UnitMul: "u8"}
	if got := GenFor(isa.OpMul, p); got != "u8" {
		t.Errorf("profile override not applied: %q", got)
	}
	if got := GenFor(isa.OpAdd, p); got != "u32" {
		t.Errorf("unrelated op affected by profile: %q", got)
	}
	if got := GenFor(isa.OpMul, nil); got != "u32" {
		t.Errorf("nil profile broke default: %q", got)
	}
}

func TestCharacterizationBasics(t *testing.T) {
	ch := fixture()
	c, err := ch.ForOp(isa.OpAdd, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEndpoints() != circuit.Width {
		t.Errorf("add endpoints = %d, want %d", c.NumEndpoints(), circuit.Width)
	}
	if c.Cycles != 768 {
		t.Errorf("cycles = %d", c.Cycles)
	}
	if c.MaxPs <= 0 || c.MaxPs > fixALU.Units[circuit.UnitAdd].WorstPs+1e-9 {
		t.Errorf("MaxPs %v outside (0, staWorst %v]", c.MaxPs, fixALU.Units[circuit.UnitAdd].WorstPs)
	}
	// Every arrival bounded by STA.
	for e, arrs := range c.Arrivals {
		for _, a := range arrs {
			if a < 0 || a > fixALU.Units[circuit.UnitAdd].WorstPs+1e-9 {
				t.Fatalf("endpoint %d arrival %v out of range", e, a)
			}
		}
	}
	// Onset must be above the STA limit (over-scaling headroom exists).
	if c.OnsetMHz() <= fixALU.STALimitMHz() {
		t.Errorf("add onset %v MHz not above STA limit %v", c.OnsetMHz(), fixALU.STALimitMHz())
	}
}

func TestCompareHasFlagEndpoint(t *testing.T) {
	ch := fixture()
	c, err := ch.ForOp(isa.OpSfgts, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEndpoints() != circuit.NumEndpoints {
		t.Errorf("compare endpoints = %d, want %d", c.NumEndpoints(), circuit.NumEndpoints)
	}
	flagArr := c.Arrivals[circuit.FlagEndpoint]
	any := false
	for _, a := range flagArr {
		if a > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Errorf("flag endpoint never toggled during characterization")
	}
}

func TestMulFailsBeforeAdd(t *testing.T) {
	// The central structural claim (paper Figs. 2 and 4): the
	// multiplier's onset frequency is below the adder's, and 16-bit
	// operands push the adder's onset higher still.
	ch := fixture()
	mul, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	add, err := ch.ForOp(isa.OpAdd, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	add16, err := ch.At(Key{Unit: circuit.UnitAdd, Gen: "u16"}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !(mul.OnsetMHz() < add.OnsetMHz()) {
		t.Errorf("mul onset %v not below add onset %v", mul.OnsetMHz(), add.OnsetMHz())
	}
	// With a short characterization kernel the onsets may coincide (the
	// same discrete low-bit worst path realized by both), but 16-bit
	// operands can never fail later than 32-bit ones ...
	if add.OnsetMHz() > add16.OnsetMHz() {
		t.Errorf("add32 onset %v above add16 onset %v", add.OnsetMHz(), add16.OnsetMHz())
	}
	// ... and the high sum endpoints (beyond the 17 bits a 16+16-bit
	// sum can reach) must never toggle under 16-bit operands.
	for e := 18; e < circuit.Width; e++ {
		if add16.CDF(e).MaxPs() != 0 {
			t.Errorf("16-bit add toggled endpoint %d", e)
		}
	}
}

func TestHigherVoltageShiftsCDFRight(t *testing.T) {
	ch := fixture()
	lo, err := ch.ForOp(isa.OpMul, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ch.ForOp(isa.OpMul, nil, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !(hi.OnsetMHz() > lo.OnsetMHz()) {
		t.Errorf("0.8V onset %v not above 0.7V onset %v", hi.OnsetMHz(), lo.OnsetMHz())
	}
	// At a frequency between the onsets, 0.7 V violates and 0.8 V does
	// not, for the worst endpoint.
	fMid := (lo.OnsetMHz() + hi.OnsetMHz()) / 2
	period := circuit.PeriodPs(fMid)
	anyLo := false
	for e := range lo.Arrivals {
		if lo.CDF(e).ViolationProb(period) > 0 {
			anyLo = true
		}
		if hi.CDF(e).ViolationProb(period) > 0 {
			t.Fatalf("0.8V endpoint %d violates below its onset", e)
		}
	}
	if !anyLo {
		t.Errorf("0.7V has no violations above its onset")
	}
}

func TestHighBitsFailEarlier(t *testing.T) {
	// Paper Fig. 2: bits of higher significance tend to fail earlier
	// (longer carry chains). Compare the max arrival of a high and a
	// low sum bit of the adder.
	ch := fixture()
	add, err := ch.ForOp(isa.OpAdd, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	lo := add.CDF(3).MaxPs()
	hi := add.CDF(24).MaxPs()
	if !(hi > lo) {
		t.Errorf("bit24 max arrival %v not above bit3 %v", hi, lo)
	}
}

func TestCachingIsStable(t *testing.T) {
	ch := fixture()
	a, err := ch.ForOp(isa.OpAdd, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch.ForOp(isa.OpAddi, Profile{circuit.UnitAdd: "u32"}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same key characterized twice (cache miss)")
	}
	c, err := ch.ForOp(isa.OpAddi, nil, 0.7) // imm16 gen: different key
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("distinct keys shared a characterization")
	}
}

func TestPrewarm(t *testing.T) {
	ch := fixture()
	if err := ch.Prewarm(nil, 0.7); err != nil {
		t.Fatal(err)
	}
	// After prewarm every ALU op resolves instantly; just verify a few.
	for _, op := range []isa.Op{isa.OpAdd, isa.OpMul, isa.OpSfeq, isa.OpSrai, isa.OpXori} {
		c, err := ch.ForOp(op, nil, 0.7)
		if err != nil || c == nil {
			t.Fatalf("op %v not prewarmed: %v", op, err)
		}
	}
}

func TestMaxPerCycleConsistent(t *testing.T) {
	ch := fixture()
	c, err := ch.ForOp(isa.OpSub, nil, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < c.Cycles; cyc++ {
		worst := 0.0
		for e := 0; e < c.NumEndpoints(); e++ {
			if a := c.Arrivals[e][cyc]; a > worst {
				worst = a
			}
		}
		if math.Abs(worst-c.MaxPerCycle[cyc]) > 1e-12 {
			t.Fatalf("cycle %d: MaxPerCycle %v != recomputed %v", cyc, c.MaxPerCycle[cyc], worst)
		}
	}
}

// TestViolationGridLayout pins the shared grid's layout: Active
// ascending, one Rows entry per (grid index, active endpoint), every
// value bit-identical to the CDF-based reference grid, and concurrent
// first uses all get the one grid.
func TestViolationGridLayout(t *testing.T) {
	c := fixture()
	ch, err := c.ForOp(isa.OpSfgts, nil, 0.7) // flagged unit: 33 endpoints
	if err != nil {
		t.Fatal(err)
	}
	grids := make([]*ViolationGrid, 8)
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grids[i] = ch.Grid()
		}()
	}
	wg.Wait()
	g := grids[0]
	for _, o := range grids {
		if o != g {
			t.Fatal("concurrent first uses built more than one grid")
		}
	}
	if g.MaxPs != ch.MaxPs+ch.SetupPs || len(g.Rows) != len(g.PNone)*len(g.Active) {
		t.Fatalf("grid shape: MaxPs %v, %d rows over %d points × %d active", g.MaxPs, len(g.Rows), len(g.PNone), len(g.Active))
	}
	for k, e := range g.Active {
		if k > 0 && e <= g.Active[k-1] {
			t.Fatalf("Active not ascending: %v", g.Active)
		}
	}
	if d := diffGrid(g, refViolationGrid(ch)); d != "" {
		t.Fatal(d)
	}
}
