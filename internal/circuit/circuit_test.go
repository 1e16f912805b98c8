package circuit

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gates"
	"repro/internal/isa"
)

// The calibrated 32-bit ALU is moderately expensive to build, so tests
// share one instance.
var (
	aluOnce sync.Once
	alu     *ALU
)

func testALU() *ALU {
	aluOnce.Do(func() { alu = New(DefaultConfig()) })
	return alu
}

// evalUnit functionally evaluates a unit on concrete operands using a
// settled (zero-time) simulation. It returns the 32-bit result and the
// raw flag node value (meaningful only for UnitCompare).
func evalUnit(u *Unit, sim *gates.Sim, a, b uint32) (uint32, bool) {
	in := PackInputs(nil, a, b)
	sim.Settle(in)
	var r uint32
	for i := 0; i < Width; i++ {
		if sim.Value(u.Endpoint[i]) {
			r |= 1 << uint(i)
		}
	}
	fl := false
	if u.HasFlag() {
		fl = sim.Value(u.Flag)
	}
	return r, fl
}

// referenceResult computes the architecturally expected unit output,
// the oracle the netlists are verified against.
func referenceResult(k UnitKind, a, b uint32) uint32 {
	switch k {
	case UnitAdd:
		return a + b
	case UnitSub, UnitCompare:
		return a - b
	case UnitMul:
		return uint32(int32(a) * int32(b))
	case UnitSll:
		return a << (b & 31)
	case UnitSrl:
		return a >> (b & 31)
	case UnitSra:
		return uint32(int32(a) >> (b & 31))
	case UnitAnd:
		return a & b
	case UnitOr:
		return a | b
	case UnitXor:
		return a ^ b
	}
	return 0
}

func TestUnitsFunctionallyCorrect(t *testing.T) {
	a := testALU()
	rng := rand.New(rand.NewSource(11))
	for k := UnitKind(0); k < NumUnits; k++ {
		u := a.Units[k]
		sim := gates.NewSim(u.Netlist, u.Netlist.DelaysAt(1))
		for i := 0; i < 300; i++ {
			x, y := rng.Uint32(), rng.Uint32()
			if k == UnitSll || k == UnitSrl || k == UnitSra {
				y = rng.Uint32() & 31
			}
			got, _ := evalUnit(u, sim, x, y)
			want := referenceResult(k, x, y)
			if got != want {
				t.Fatalf("%v(%08x, %08x) = %08x, want %08x", k, x, y, got, want)
			}
		}
	}
}

func TestCompareFlagFunctional(t *testing.T) {
	a := testALU()
	u := a.Units[UnitCompare]
	if !u.HasFlag() {
		t.Fatal("compare unit has no flag endpoint")
	}
	sim := gates.NewSim(u.Netlist, u.Netlist.DelaysAt(1))
	// The flag tree is wired to the signed-less-than branch.
	cases := []struct {
		x, y uint32
		want bool
	}{
		{5, 5, false}, {5, 6, true}, {6, 5, false},
		{0xFFFFFFFF, 0, true}, // -1 < 0 signed
		{0, 0xFFFFFFFF, false},
		{0x80000000, 0x7FFFFFFF, true}, // INT_MIN < INT_MAX
	}
	for _, c := range cases {
		_, fl := evalUnit(u, sim, c.x, c.y)
		if fl != c.want {
			t.Errorf("flag(%d,%d) = %v, want %v", c.x, c.y, fl, c.want)
		}
	}
}

func TestTimedMatchesFunctionalOnUnits(t *testing.T) {
	a := testALU()
	for _, k := range []UnitKind{UnitAdd, UnitSub, UnitMul, UnitSra, UnitXor} {
		u := a.Units[k]
		timed := gates.NewSim(u.Netlist, u.Netlist.DelaysAt(1))
		in := PackInputs(nil, 0, 0)
		timed.Settle(in)
		rng := rand.New(rand.NewSource(int64(k) + 7))
		for i := 0; i < 100; i++ {
			x, y := rng.Uint32(), rng.Uint32()
			timed.Cycle(PackInputs(in, x, y))
			var got uint32
			for bit := 0; bit < Width; bit++ {
				if timed.Value(u.Endpoint[bit]) {
					got |= 1 << uint(bit)
				}
			}
			if want := referenceResult(k, x, y); got != want {
				t.Fatalf("%v timed (%08x,%08x) = %08x, want %08x", k, x, y, got, want)
			}
		}
	}
}

func TestCalibrationHitsSTATarget(t *testing.T) {
	a := testALU()
	limit := a.STALimitMHz()
	if math.Abs(limit-a.Config.STAFreqMHz) > 0.01 {
		t.Errorf("STA limit = %v MHz, want %v", limit, a.Config.STAFreqMHz)
	}
	avail := a.TargetPeriodPs - a.Config.SetupPs
	for k := UnitKind(0); k < NumUnits; k++ {
		u := a.Units[k]
		want := avail * a.Config.tightness(k)
		if math.Abs(u.WorstPs-want) > 1e-6*want {
			t.Errorf("%v worst %v ps, want %v", k, u.WorstPs, want)
		}
	}
}

func TestDataPathUnitsFormTimingWall(t *testing.T) {
	a := testALU()
	// Add, sub, compare and mul all sit exactly at the constraint;
	// shifter and logic have slack.
	for _, k := range []UnitKind{UnitAdd, UnitSub, UnitCompare, UnitMul} {
		if math.Abs(a.Units[k].WorstPs-a.Units[UnitAdd].WorstPs) > 1e-6 {
			t.Errorf("%v not at the timing wall: %v vs %v", k,
				a.Units[k].WorstPs, a.Units[UnitAdd].WorstPs)
		}
	}
	if a.Units[UnitSll].WorstPs >= a.Units[UnitAdd].WorstPs {
		t.Errorf("shifter has no slack")
	}
	if a.Units[UnitAnd].WorstPs >= a.Units[UnitSll].WorstPs {
		t.Errorf("logic unit not faster than shifter")
	}
}

func TestWorstEndpointCoversAllUnits(t *testing.T) {
	a := testALU()
	we := a.worstEndpoint
	for k := UnitKind(0); k < NumUnits; k++ {
		u := a.Units[k]
		arr := u.Netlist.STA(u.Netlist.DelaysAt(1))
		for i := 0; i < Width; i++ {
			if arr[u.Endpoint[i]] > we[i]+1e-9 {
				t.Fatalf("endpoint %d: unit %v arrival %v exceeds recorded worst %v",
					i, k, arr[u.Endpoint[i]], we[i])
			}
		}
	}
	if we[FlagEndpoint] <= 0 {
		t.Errorf("flag endpoint has no worst path")
	}
}

func TestUnitOfMapping(t *testing.T) {
	cases := map[isa.Op]UnitKind{
		isa.OpAdd: UnitAdd, isa.OpAddi: UnitAdd, isa.OpSub: UnitSub,
		isa.OpMul: UnitMul, isa.OpMuli: UnitMul,
		isa.OpSfeq: UnitCompare, isa.OpSfltsi: UnitCompare,
		isa.OpSll: UnitSll, isa.OpSrli: UnitSrl, isa.OpSrai: UnitSra,
		isa.OpAndi: UnitAnd, isa.OpOr: UnitOr, isa.OpXori: UnitXor,
	}
	for op, want := range cases {
		if got := UnitOf(op); got != want {
			t.Errorf("UnitOf(%v) = %v, want %v", op, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("UnitOf on non-ALU op did not panic")
			}
		}()
		UnitOf(isa.OpLwz)
	}()
}

func TestPackInputsRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		in := PackInputs(nil, a, b)
		var ga, gb uint32
		for i := 0; i < Width; i++ {
			if in[i] {
				ga |= 1 << uint(i)
			}
			if in[Width+i] {
				gb |= 1 << uint(i)
			}
		}
		return ga == a && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeriodFreqConversions(t *testing.T) {
	if p := PeriodPs(707); math.Abs(p-1414.427) > 0.01 {
		t.Errorf("period(707MHz) = %v ps", p)
	}
	for _, f := range []float64{100, 707, 1150, 2000} {
		if got := FreqMHz(PeriodPs(f)); math.Abs(got-f) > 1e-9 {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
}

func TestMulDynamicArrivalsCrowdTheLimit(t *testing.T) {
	// The structural property the reproduction relies on: with random
	// operands, the multiplier's dynamic arrivals reach much closer to
	// its static worst path than the adder's do, so l.mul fails first
	// under over-scaling (paper Figs. 2 and 4).
	a := testALU()
	maxRatio := func(k UnitKind, cycles int) float64 {
		u := a.Units[k]
		sim := gates.NewSim(u.Netlist, u.Netlist.DelaysAt(1))
		rng := rand.New(rand.NewSource(99))
		in := PackInputs(nil, rng.Uint32(), rng.Uint32())
		sim.Settle(in)
		worstDyn := 0.0
		for i := 0; i < cycles; i++ {
			sim.Cycle(PackInputs(in, rng.Uint32(), rng.Uint32()))
			for bit := 0; bit < Width; bit++ {
				if arr := sim.Arrival(u.Endpoint[bit]); arr > worstDyn {
					worstDyn = arr
				}
			}
		}
		return worstDyn / u.WorstPs
	}
	mul := maxRatio(UnitMul, 150)
	add := maxRatio(UnitAdd, 150)
	if mul <= add {
		t.Errorf("mul dynamic/static ratio %.3f not above add ratio %.3f", mul, add)
	}
	if mul < 0.7 {
		t.Errorf("mul ratio %.3f suspiciously low", mul)
	}
	if add > 0.99 {
		t.Errorf("add ratio %.3f leaves no over-scaling headroom", add)
	}
}

func TestDeterministicALU(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	if a.Units[UnitMul].WorstPs != b.Units[UnitMul].WorstPs {
		t.Errorf("ALU generation not deterministic")
	}
	wa, wb := a.worstEndpoint, b.worstEndpoint
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("endpoint %d worst differs", i)
		}
	}
}
