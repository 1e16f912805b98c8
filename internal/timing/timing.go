// Package timing models the operating-condition dependence of circuit
// delay: the supply-voltage/delay relationship (an alpha-power law
// calibrated to the paper's 28 nm anchors), the cycle-by-cycle
// supply-voltage noise (Gaussian, clipped at 2 sigma), and the empirical
// timing-error CDFs extracted by dynamic timing analysis.
//
// timing is a leaf of the dependency graph (stdlib only): gates and
// circuit scale their delays through it, dta records into its CDFs, and
// fi's models evaluate them per cycle.
package timing

import (
	"math"
	"sort"
)

// VRef is the reference supply voltage of the case study (volts); all
// delay factors are relative to this operating point, where the paper's
// core closes timing at 707 MHz.
const VRef = 0.7

// VddDelay is an alpha-power-law delay model: the gate delay at supply V
// is proportional to (V - Vt)^-Alpha. The defaults (Vt = 0.30 V, Alpha =
// 1.35) reproduce the paper's Fig. 1 anchors: with noise clipped at 2
// sigma, the first fault injection of model B+ moves from the 707 MHz STA
// limit down to 661 MHz for sigma = 10 mV and 588 MHz for sigma = 25 mV
// (both within 0.5%).
type VddDelay struct {
	Vt    float64
	Alpha float64
}

// DefaultVddDelay returns the calibrated 28 nm model.
func DefaultVddDelay() VddDelay { return VddDelay{Vt: 0.30, Alpha: 1.35} }

// Factor returns the delay multiplier at supply v relative to VRef.
// Lower voltage means slower gates, so Factor(v) > 1 for v < VRef.
func (m VddDelay) Factor(v float64) float64 {
	if v <= m.Vt {
		return math.Inf(1)
	}
	return math.Pow((VRef-m.Vt)/(v-m.Vt), m.Alpha)
}

// FactorRel returns the delay multiplier of v+dv relative to v, the
// modulation applied per cycle for supply noise dv.
func (m VddDelay) FactorRel(v, dv float64) float64 {
	return m.Factor(v+dv) / m.Factor(v)
}

// Noise is the supply-voltage noise model: zero-mean Gaussian with
// standard deviation Sigma (volts), saturated at Clip sigma as in the
// paper (2 sigma) to exclude physically unrealistic spikes. A fresh
// independent sample is drawn every clock cycle.
type Noise struct {
	Sigma float64
	Clip  float64
}

// NewNoise returns the paper's noise model for a sigma given in volts.
func NewNoise(sigma float64) Noise { return Noise{Sigma: sigma, Clip: 2} }

// CDF is the empirical distribution of dynamic arrival times at one
// endpoint for one instruction, extracted by DTA. Violation probability
// at frequency f is the fraction of characterization cycles whose arrival
// plus setup exceeds the clock period, as defined in Sec. 3.4 of the
// paper (P = v_f / n_I).
type CDF struct {
	sorted  []float64 // arrival times in ps, ascending (0 = no toggle)
	setupPs float64
}

// NewCDF builds a CDF from raw arrival samples (ps). The slice is copied.
func NewCDF(arrivals []float64, setupPs float64) *CDF {
	s := make([]float64, len(arrivals))
	copy(s, arrivals)
	sort.Float64s(s)
	return &CDF{sorted: s, setupPs: setupPs}
}

// MaxPs returns the largest observed arrival (ps).
func (c *CDF) MaxPs() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// ViolationProb returns P(arrival + setup > period) for a period in ps.
func (c *CDF) ViolationProb(periodPs float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Count samples with arrival > period - setup.
	x := periodPs - c.setupPs
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// OnsetMHz returns the highest frequency at which the violation
// probability is still zero (the extreme point of the characterized
// distribution). Above it, this endpoint begins to see faults.
func (c *CDF) OnsetMHz() float64 {
	m := c.MaxPs()
	if m <= 0 {
		return math.Inf(1)
	}
	return 1e6 / (m + c.setupPs)
}
