// Package power models the active and leakage power of the simulated
// core, calibrated on the paper's vcd-based post-layout reference points
// (10.9 uW/MHz at 0.6 V and 15.0 uW/MHz at 0.7 V, with leakage consuming
// 2% and 3% of core power respectively), and normalizes it to the
// nominal supply for the error-vs-power trade-off of Fig. 7.
//
// power is a leaf model in the dependency graph, bound into the stack
// by core and consumed by the Fig. 7 runner in experiments.
package power

// RefPoint is one power characterization sample.
type RefPoint struct {
	V        float64 // supply voltage (V)
	UWPerMHz float64 // active core power per MHz
	LeakFrac float64 // leakage fraction of total core power at this V
}

// Model scales active power quadratically in supply voltage through two
// reference points (the paper's footnote 2), with a linearly
// interpolated leakage fraction.
type Model struct {
	Lo, Hi RefPoint
	// a, b satisfy uW/MHz = a*V^2 + b through both reference points.
	a, b float64
}

// Default returns the paper's 28 nm power model.
func Default() Model {
	return New(
		RefPoint{V: 0.6, UWPerMHz: 10.9, LeakFrac: 0.02},
		RefPoint{V: 0.7, UWPerMHz: 15.0, LeakFrac: 0.03},
	)
}

// New builds a model through two reference points (Lo.V < Hi.V).
func New(lo, hi RefPoint) Model {
	a := (hi.UWPerMHz - lo.UWPerMHz) / (hi.V*hi.V - lo.V*lo.V)
	b := hi.UWPerMHz - a*hi.V*hi.V
	return Model{Lo: lo, Hi: hi, a: a, b: b}
}

// ActiveUWPerMHz returns the active power density at supply v.
func (m Model) ActiveUWPerMHz(v float64) float64 { return m.a*v*v + m.b }

// LeakFrac returns the leakage fraction of total core power at supply v
// (linear interpolation between the reference points, clamped).
func (m Model) LeakFrac(v float64) float64 {
	t := (v - m.Lo.V) / (m.Hi.V - m.Lo.V)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return m.Lo.LeakFrac + t*(m.Hi.LeakFrac-m.Lo.LeakFrac)
}

// TotalUW returns total core power (active + leakage) at supply v and
// clock fMHz.
func (m Model) TotalUW(v, fMHz float64) float64 {
	active := m.ActiveUWPerMHz(v) * fMHz
	frac := m.LeakFrac(v)
	// leakage = frac * total  =>  total = active / (1 - frac).
	return active / (1 - frac)
}

// Normalized returns core power at (v, fMHz) relative to the nominal
// operating point (vRef at the same frequency), the y-axis normalization
// of the paper's Fig. 7.
func (m Model) Normalized(v, vRef, fMHz float64) float64 {
	return m.TotalUW(v, fMHz) / m.TotalUW(vRef, fMHz)
}
