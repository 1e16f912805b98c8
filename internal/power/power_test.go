package power

import (
	"math"
	"testing"

	"repro/internal/timing"
)

func TestReferencePoints(t *testing.T) {
	m := Default()
	if got := m.ActiveUWPerMHz(0.6); math.Abs(got-10.9) > 1e-9 {
		t.Errorf("active @0.6V = %v, want 10.9", got)
	}
	if got := m.ActiveUWPerMHz(0.7); math.Abs(got-15.0) > 1e-9 {
		t.Errorf("active @0.7V = %v, want 15.0", got)
	}
	if got := m.LeakFrac(0.6); got != 0.02 {
		t.Errorf("leak frac @0.6V = %v", got)
	}
	if got := m.LeakFrac(0.7); got != 0.03 {
		t.Errorf("leak frac @0.7V = %v", got)
	}
}

func TestTotalIncludesLeakage(t *testing.T) {
	m := Default()
	tot := m.TotalUW(0.7, 707)
	active := 15.0 * 707
	if tot <= active {
		t.Errorf("total %v not above active %v", tot, active)
	}
	// Leakage should be 3% of the total.
	if frac := (tot - active) / tot; math.Abs(frac-0.03) > 1e-9 {
		t.Errorf("leak fraction of total = %v, want 0.03", frac)
	}
}

func TestNormalizedMonotoneInV(t *testing.T) {
	m := Default()
	prev := 0.0
	for v := 0.60; v <= 0.70001; v += 0.005 {
		p := m.Normalized(v, 0.7, 707)
		if p <= prev {
			t.Fatalf("normalized power not increasing at %v", v)
		}
		prev = p
	}
	if got := m.Normalized(0.7, 0.7, 707); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized at nominal = %v", got)
	}
}

func TestFig7Landmarks(t *testing.T) {
	// Paper Fig. 7: the no-noise PoFF is reached at about 0.667 V
	// (paper: 0.93x power; our quadratic-through-references model gives
	// about 0.91x) and 22% error at 0.657 V with about 0.88x power.
	m := Default()
	vm := timing.DefaultVddDelay()
	// The PoFF headroom 1.114 at 0.7 V is worth a supply within 3 mV of
	// 0.667 V: the delay factor crosses 1.114 between 0.664 and 0.670 V.
	if lo, hi := vm.Factor(0.670), vm.Factor(0.664); lo > 1.114 || hi < 1.114 {
		t.Errorf("delay factor over [0.664, 0.670] V = [%v, %v], want it to cross 1.114", lo, hi)
	}
	if p := m.Normalized(0.667, 0.7, 707); p < 0.89 || p > 0.94 {
		t.Errorf("normalized power at PoFF = %v, want about 0.91 (paper 0.93)", p)
	}
	p657 := m.Normalized(0.657, 0.7, 707)
	if math.Abs(p657-0.88) > 0.015 {
		t.Errorf("power @0.657V = %v, want about 0.88", p657)
	}
}
