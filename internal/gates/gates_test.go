package gates

import (
	"math"
	"testing"
	"testing/quick"
)

// buildTestAdder returns a small ripple-carry adder netlist for n bits.
func buildTestAdder(n int, seed int64) (*Netlist, []int32) {
	b := NewBuilder(NewDelayModel(seed))
	as := make([]int32, n)
	bs := make([]int32, n)
	for i := range as {
		as[i] = b.Input()
	}
	for i := range bs {
		bs[i] = b.Input()
	}
	sum := make([]int32, n)
	c := b.Const(false)
	for i := 0; i < n; i++ {
		sum[i] = b.Xor3(as[i], bs[i], c)
		c = b.Maj3(as[i], bs[i], c)
	}
	for i, s := range sum {
		b.Output(nameOf(i), s)
	}
	return b.Build(), sum
}

func nameOf(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func packAdd(n int, a, bb uint64) []bool {
	in := make([]bool, 2*n)
	for i := 0; i < n; i++ {
		in[i] = a>>uint(i)&1 == 1
		in[n+i] = bb>>uint(i)&1 == 1
	}
	return in
}

func TestEvalKinds(t *testing.T) {
	cases := []struct {
		k       Kind
		a, b, c bool
		want    bool
	}{
		{KindNot, true, false, false, false},
		{KindAnd2, true, true, false, true},
		{KindAnd2, true, false, false, false},
		{KindOr2, false, false, false, false},
		{KindXor2, true, false, false, true},
		{KindXor3, true, true, true, true},
		{KindXor3, true, true, false, false},
		{KindMaj3, true, true, false, true},
		{KindMaj3, true, false, false, false},
		{KindMux2, false, true, false, true}, // sel=0 -> a0
		{KindMux2, true, true, false, false}, // sel=1 -> a1
		{KindConst0, true, true, true, false},
		{KindConst1, false, false, false, true},
	}
	for _, c := range cases {
		if got := Eval(c.k, c.a, c.b, c.c); got != c.want {
			t.Errorf("eval(%v,%v,%v,%v) = %v, want %v", c.k, c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestAdderFunctional(t *testing.T) {
	const n = 8
	nl, _ := buildTestAdder(n, 1)
	sim := NewSim(nl, nl.DelaysAt(1))
	f := func(a, bb uint8) bool {
		sim.Settle(packAdd(n, uint64(a), uint64(bb)))
		var got uint8
		for i := 0; i < n; i++ {
			if sim.Value(nl.Outputs[nameOf(i)]) {
				got |= 1 << uint(i)
			}
		}
		return got == a+bb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTimedCycleMatchesFunctional(t *testing.T) {
	const n = 8
	nl, _ := buildTestAdder(n, 2)
	sim := NewSim(nl, nl.DelaysAt(1))
	ref := NewSim(nl, nl.DelaysAt(1))
	sim.Settle(packAdd(n, 0, 0))
	vals := []struct{ a, b uint64 }{
		{1, 1}, {255, 1}, {0x55, 0xAA}, {0, 0}, {0xFF, 0xFF}, {3, 7},
	}
	for _, v := range vals {
		sim.Cycle(packAdd(n, v.a, v.b))
		ref.Settle(packAdd(n, v.a, v.b))
		for i := 0; i < n; i++ {
			node := nl.Outputs[nameOf(i)]
			if sim.Value(node) != ref.Value(node) {
				t.Fatalf("a=%d b=%d bit %d: timed %v vs functional %v",
					v.a, v.b, i, sim.Value(node), ref.Value(node))
			}
		}
	}
}

func TestArrivalReflectsCarryChain(t *testing.T) {
	const n = 16
	nl, _ := buildTestAdder(n, 3)
	sim := NewSim(nl, nl.DelaysAt(1))
	msb := nl.Outputs[nameOf(n-1)]

	// 0 + 0 -> 0xFFFF + 1 carries through the whole chain.
	sim.Settle(packAdd(n, 0, 0))
	sim.Cycle(packAdd(n, 0xFFFF, 1))
	longArr := sim.Arrival(msb)

	// 0 + 0 -> 1 + 1: only a local change at the bottom; the MSB sum
	// may toggle via its local carry but far earlier.
	sim.Settle(packAdd(n, 0, 0))
	sim.Cycle(packAdd(n, 1, 0))
	shortArr := sim.Arrival(msb)

	if longArr <= 0 {
		t.Fatalf("long carry produced no MSB transition")
	}
	if shortArr >= longArr {
		t.Errorf("short-carry arrival %v not below long-carry arrival %v", shortArr, longArr)
	}

	// STA bounds every dynamic arrival.
	sta := nl.STA(nl.DelaysAt(1))
	if longArr > sta[msb]+1e-9 {
		t.Errorf("dynamic arrival %v exceeds STA %v", longArr, sta[msb])
	}
}

// Property: for random input sequences, every node's dynamic arrival is
// bounded by its static arrival, and the timed final values match a
// functional evaluation.
func TestArrivalBoundedBySTAProperty(t *testing.T) {
	const n = 8
	nl, _ := buildTestAdder(n, 4)
	sta := nl.STA(nl.DelaysAt(1))
	sim := NewSim(nl, nl.DelaysAt(1))
	ref := NewSim(nl, nl.DelaysAt(1))
	sim.Settle(packAdd(n, 0, 0))
	f := func(a, bb uint8) bool {
		sim.Cycle(packAdd(n, uint64(a), uint64(bb)))
		ref.Settle(packAdd(n, uint64(a), uint64(bb)))
		for g := 0; g < nl.NumNodes(); g++ {
			if sim.Arrival(int32(g)) > sta[g]+1e-9 {
				return false
			}
			if sim.Value(int32(g)) != ref.Value(int32(g)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNoToggleNoArrival(t *testing.T) {
	const n = 8
	nl, _ := buildTestAdder(n, 5)
	sim := NewSim(nl, nl.DelaysAt(1))
	sim.Settle(packAdd(n, 3, 4))
	sim.Cycle(packAdd(n, 3, 4)) // identical inputs: nothing toggles
	for g := 0; g < nl.NumNodes(); g++ {
		if sim.Arrival(int32(g)) != 0 {
			t.Fatalf("node %d has arrival %v with unchanged inputs", g, sim.Arrival(int32(g)))
		}
	}
	if sim.Transitions != 0 {
		t.Errorf("transitions = %d, want 0", sim.Transitions)
	}
}

func TestDelaysAtScaling(t *testing.T) {
	nl, _ := buildTestAdder(4, 6)
	d1 := nl.DelaysAt(1)
	d2 := nl.DelaysAt(1.5)
	for i := range d1 {
		if d1[i] == 0 {
			continue
		}
		ratio := d2[i] / d1[i]
		// eta within [0.95, 1.05] so ratio in [1.5^0.95, 1.5^1.05].
		lo, hi := math.Pow(1.5, 0.94), math.Pow(1.5, 1.06)
		if ratio < lo || ratio > hi {
			t.Errorf("gate %d scale ratio %v outside [%v,%v]", i, ratio, lo, hi)
		}
	}
}

func TestScaleCalibration(t *testing.T) {
	nl, _ := buildTestAdder(8, 7)
	w0, _ := nl.WorstOutputArrival(nl.DelaysAt(1))
	nl.Scale(2)
	w1, _ := nl.WorstOutputArrival(nl.DelaysAt(1))
	if math.Abs(w1-2*w0) > 1e-9 {
		t.Errorf("scaling by 2 changed worst from %v to %v", w0, w1)
	}
}

func TestDeterministicDelayModel(t *testing.T) {
	a, _ := buildTestAdder(8, 42)
	b, _ := buildTestAdder(8, 42)
	for i := range a.D0 {
		if a.D0[i] != b.D0[i] || a.Eta[i] != b.Eta[i] {
			t.Fatalf("delay model not deterministic at gate %d", i)
		}
	}
}

func TestInertialFilterRemovesNarrowPulse(t *testing.T) {
	// A slow AND gate fed by a signal and its delayed complement: the
	// static hazard pulse is narrower than the AND delay and must be
	// filtered.
	dm := NewDelayModel(1)
	dm.Variation = 0
	b := NewBuilder(dm)
	x := b.Input()
	inv := b.Not(x) // 11 ps
	and := b.And(x, inv)
	b.Output("y", and)
	nl := b.Build()
	sim := NewSim(nl, nl.DelaysAt(1))
	sim.Settle([]bool{false})
	sim.Cycle([]bool{true})
	// x rises at 0, inv falls at 11; the AND sees (1,1) during (0,11):
	// an 11 ps pulse against a 19 ps AND delay -> rejected.
	if sim.Value(and) != false {
		t.Errorf("AND settled wrong")
	}
	if got := sim.Arrival(and); got != 0 {
		t.Errorf("narrow pulse leaked to output (arrival %v)", got)
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(NewDelayModel(1))
	x := b.Input()
	b.Output("x", x)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate output did not panic")
			}
		}()
		b.Output("x", x)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("forward fanin reference did not panic")
			}
		}()
		b.And(x, 99)
	}()
}
