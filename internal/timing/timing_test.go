package timing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFactorAnchorsPaperNumbers(t *testing.T) {
	m := DefaultVddDelay()
	// The paper's Fig. 1: with noise clipped at 2 sigma, first FI moves
	// from 707 MHz to 661 MHz (sigma = 10 mV) and 588 MHz (25 mV).
	cases := []struct {
		droop     float64
		wantedMHz float64
	}{
		{0.020, 661},
		{0.050, 588},
	}
	for _, c := range cases {
		m1 := m.FactorRel(VRef, -c.droop)
		got := 707 / m1
		if math.Abs(got-c.wantedMHz) > 0.005*c.wantedMHz {
			t.Errorf("first FI for droop %v V: %v MHz, want about %v (0.5%%)",
				c.droop, got, c.wantedMHz)
		}
	}
}

func TestFactorProperties(t *testing.T) {
	m := DefaultVddDelay()
	if f := m.Factor(VRef); math.Abs(f-1) > 1e-12 {
		t.Errorf("Factor(VRef) = %v, want 1", f)
	}
	if m.Factor(0.6) <= 1 {
		t.Errorf("lower voltage must be slower")
	}
	if m.Factor(0.8) >= 1 {
		t.Errorf("higher voltage must be faster")
	}
	if !math.IsInf(m.Factor(m.Vt), 1) {
		t.Errorf("Factor at threshold must diverge")
	}
	// Monotone decreasing in V.
	prev := math.Inf(1)
	for v := 0.35; v <= 1.2; v += 0.01 {
		f := m.Factor(v)
		if f >= prev {
			t.Fatalf("Factor not strictly decreasing at %v", v)
		}
		prev = f
	}
}

func TestNoise(t *testing.T) {
	if got, want := NewNoise(0.010), (Noise{Sigma: 0.010, Clip: 2}); got != want {
		t.Errorf("NewNoise(0.010) = %+v, want %+v (the paper clips at 2 sigma)", got, want)
	}
}

func TestCDFViolationProb(t *testing.T) {
	// Arrivals 100..1000 ps, setup 30.
	arr := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	c := NewCDF(arr, 30)
	if got := c.ViolationProb(2000); got != 0 {
		t.Errorf("long period: prob %v, want 0", got)
	}
	if got := c.ViolationProb(50); got != 1 {
		t.Errorf("tiny period: prob %v, want 1", got)
	}
	// Period 530: violation iff arr > 500, i.e. 5 of 10 samples.
	if got := c.ViolationProb(530); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("prob at 530 = %v, want 0.5", got)
	}
	// Boundary: arr + setup == period is NOT a violation.
	if got := c.ViolationProb(1030); got != 0 {
		t.Errorf("boundary arrival counted as violation: %v", got)
	}
	if got := c.MaxPs(); got != 1000 {
		t.Errorf("MaxPs = %v", got)
	}
	onset := c.OnsetMHz()
	if math.Abs(onset-1e6/1030) > 1e-9 {
		t.Errorf("onset = %v", onset)
	}
	if got := c.ViolationProb(circuitPeriod(onset) * 0.999); got == 0 {
		t.Errorf("just above onset must violate")
	}
}

func circuitPeriod(fMHz float64) float64 { return 1e6 / fMHz }

// Property: violation probability is monotone non-increasing in period.
func TestCDFMonotoneProperty(t *testing.T) {
	arr := []float64{50, 150, 250, 350, 800, 1200}
	c := NewCDF(arr, 25)
	f := func(p1, p2 uint16) bool {
		a, b := float64(p1%3000), float64(p2%3000)
		if a > b {
			a, b = b, a
		}
		return c.ViolationProb(a) >= c.ViolationProb(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil, 30)
	if c.ViolationProb(100) != 0 || c.MaxPs() != 0 {
		t.Errorf("empty CDF must never violate")
	}
	if !math.IsInf(c.OnsetMHz(), 1) {
		t.Errorf("empty CDF onset must be +inf")
	}
}
