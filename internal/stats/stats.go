// Package stats provides the random streams and closed-form
// distributions the fault-injection simulator samples from: seeded
// generators and deterministic seed fan-out for parallel Monte-Carlo
// trials, the per-trial xoshiro256++ stream with its batched Bernoulli
// draws, the standard normal CDF and quantile, and Wilson score
// intervals for adaptive trial allocation.
//
// stats is a leaf of the dependency graph (stdlib only), used by
// nearly every layer: dta's characterization draws, fi's samplers and
// hazard math, the mc engine's seed fan-out and Wilson-interval
// adaptive stopping.
package stats

import (
	"math"
	"math/rand"
)

// SplitMix64 advances a 64-bit state and returns the next value of the
// SplitMix64 sequence. It is used to derive statistically independent
// sub-seeds from a master seed so that parallel Monte-Carlo trials are
// reproducible regardless of scheduling.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SubSeed deterministically derives the i-th sub-seed from a master seed.
func SubSeed(master int64, i int) int64 {
	s := uint64(master)
	// Mix the index in twice so adjacent indices diverge quickly.
	s ^= SplitMix64(&s) + uint64(i)*0x9e3779b97f4a7c15
	v := SplitMix64(&s)
	return int64(v)
}

// NewRand returns a seeded *rand.Rand. It centralizes RNG construction so
// every stochastic component of the simulator is reproducible.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// xoshiro256pp is a xoshiro256++ rand.Source64. Seeding costs four
// SplitMix64 steps instead of the ~2.5 KiB state expansion of the
// stdlib lagged-Fibonacci source, which matters when a fresh stream is
// created per Monte-Carlo trial: stdlib seeding alone costs ~14 µs, a
// large fraction of a short fault trial.
type xoshiro256pp struct{ s0, s1, s2, s3 uint64 }

// Seed (re)derives the four state words from a 64-bit seed via
// SplitMix64, the initialization recommended by the xoshiro authors.
func (x *xoshiro256pp) Seed(seed int64) {
	s := uint64(seed)
	x.s0 = SplitMix64(&s)
	x.s1 = SplitMix64(&s)
	x.s2 = SplitMix64(&s)
	x.s3 = SplitMix64(&s)
}

func rotl64(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

func (x *xoshiro256pp) Uint64() uint64 {
	r := rotl64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl64(x.s3, 45)
	return r
}

func (x *xoshiro256pp) Int63() int64 { return int64(x.Uint64() >> 1) }

// unitFloat maps one raw generator output to the float64 that
// (*rand.Rand).Float64 derives from it: Int63 (the top 63 bits) scaled
// by 2^-63. Raw values whose Int63 is at least 2^63-512 round to
// exactly 1, which Float64 never returns; callers redraw on 1.
func unitFloat(raw uint64) float64 { return float64(int64(raw>>1)) / (1 << 63) }

// TrialRand is the per-trial random stream of Monte-Carlo fault trials:
// the *rand.Rand view of a xoshiro256++ source, plus draws that read the
// concrete source directly instead of through the rand.Source interface.
// Float64 and BernoulliRows return exactly the values the embedded
// *rand.Rand would, so any interleaving of TrialRand and *rand.Rand
// methods consumes one and the same stream.
type TrialRand struct {
	*rand.Rand
	src xoshiro256pp
}

// NewTrial returns a seeded per-trial stream. Streams are built per
// (master seed, trial index) pair, where stdlib seeding would dominate
// short trials. The stream differs from NewRand's for the same seed, so
// components whose cached artifacts embed NewRand-derived draws (DTA
// characterization) must keep NewRand.
func NewTrial(seed int64) *TrialRand {
	r := &TrialRand{}
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// NewTrialRand returns the *rand.Rand view of NewTrial(seed), for
// callers that need no direct source access.
func NewTrialRand(seed int64) *rand.Rand { return NewTrial(seed).Rand }

// Float64 is (*rand.Rand).Float64 on the concrete source, including its
// redraw of values that round to 1.
func (r *TrialRand) Float64() float64 {
	for {
		if f := unitFloat(r.src.Uint64()); f != 1 {
			return f
		}
	}
}

// oneFrom is the smallest Int63 value whose unitFloat is 1.
const oneFrom = 1<<63 - 512

// below returns a threshold such that, for every Int63 value k below
// oneFrom (every value Float64 does not redraw), unitFloat(k<<1) < p
// exactly when k < below(p). unitFloat is monotone in k, so the values
// under p form a prefix and one integer comparison decides a draw.
func below(p float64) uint64 {
	x := p * (1 << 63) // exact: unitFloat < p iff float64(k) < x
	switch {
	case !(x > 0):
		return 0
	case x >= 1<<63:
		return 1 << 63
	case x <= 1<<53:
		// Every integer up to 2^53 converts exactly.
		return uint64(math.Ceil(x))
	}
	// x is an integer above 2^53. Integers below the midpoint between x
	// and the float before it convert below x; the midpoint itself
	// rounds to whichever neighbour has the even mantissa.
	mid := (uint64(math.Nextafter(x, 0)) + uint64(x)) / 2
	if float64(int64(mid)) >= x {
		return mid
	}
	return mid + 1
}

// BernoulliRows draws rounds of len(p) uniforms, one per p[k] in order,
// and returns the hit mask of the first round in which some uniform
// fell below its probability (bit k set iff u_k < p[k]), or 0 after
// rounds rounds without a hit. The stream advances exactly as len(p)
// Float64 calls per drawn round would, redraws included. The generator
// state stays in locals for the whole call, and each comparison runs
// on the raw Int63 value against the threshold below(p[k]). len(p) must
// not exceed 64.
func (r *TrialRand) BernoulliRows(p []float64, rounds int) uint64 {
	var buf [64]uint64
	th := buf[:len(p)]
	for k, pk := range p {
		th[k] = below(pk)
	}
	s0, s1, s2, s3 := r.src.s0, r.src.s1, r.src.s2, r.src.s3
	var hits uint64
	for ; hits == 0 && rounds > 0; rounds-- {
		for k := 0; k < len(th); k++ {
			raw := rotl64(s0+s3, 23) + s0
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl64(s3, 45)
			v := raw >> 1
			if v >= oneFrom {
				k-- // Float64 redraws values that map to 1
				continue
			}
			if v < th[k] {
				hits |= 1 << uint(k)
			}
		}
	}
	r.src.s0, r.src.s1, r.src.s2, r.src.s3 = s0, s1, s2, s3
	return hits
}

// NormalCDF returns Phi(x), the standard normal cumulative distribution
// function. It is exact to full float64 precision in both tails (erfc
// avoids the cancellation that 0.5*(1+erf) suffers for x << 0).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normalPDF is the standard normal density.
func normalPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormalQuantile returns Phi^-1(p), the standard normal quantile
// (probit) function: NormalCDF(NormalQuantile(p)) == p to near machine
// precision. It is the inversion step of first-fault sampling, which
// draws supply-noise values conditioned on a timing violation instead of
// simulating cycle-by-cycle. p outside (0, 1) returns -Inf / +Inf.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's rational approximation (|eps| < 1.15e-9)...
	const (
		a1   = -3.969683028665376e+01
		a2   = 2.209460984245205e+02
		a3   = -2.759285104469687e+02
		a4   = 1.383577518672690e+02
		a5   = -3.066479806614716e+01
		a6   = 2.506628277459239e+00
		b1   = -5.447609879822406e+01
		b2   = 1.615858368580409e+02
		b3   = -1.556989798598866e+02
		b4   = 6.680131188771972e+01
		b5   = -1.328068155288572e+01
		c1   = -7.784894002430293e-03
		c2   = -3.223964580411365e-01
		c3   = -2.400758277161838e+00
		c4   = -2.549732539343734e+00
		c5   = 4.374664141464968e+00
		c6   = 2.938163982698783e+00
		d1   = 7.784695709041462e-03
		d2   = 3.224671290700398e-01
		d3   = 2.445134137142996e+00
		d4   = 3.754408661907416e+00
		plow = 0.02425
	)
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
	// ...polished by two Halley steps against the exact CDF, which takes
	// the error to a few ulps across the whole domain.
	for i := 0; i < 2; i++ {
		e := NormalCDF(x) - p
		u := e / normalPDF(x)
		x -= u / (1 + x*u/2)
	}
	return x
}

// WilsonZ95 is the normal quantile for a two-sided 95% confidence
// interval, the default for adaptive Monte-Carlo trial allocation.
const WilsonZ95 = 1.959963984540054

// Wilson returns the Wilson score confidence interval [lo, hi] for a
// binomial proportion with k successes out of n trials at normal
// quantile z. Unlike the normal approximation it stays inside [0, 1]
// and remains informative at k = 0 and k = n, which is exactly where
// the adaptive sweep engine needs it: a point with zero failures so far
// still has a non-trivial upper bound on its failure probability.
// Wilson(k, 0, z) returns the uninformative interval [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)) / denom
	lo = center - half
	hi = center + half
	// Pin the degenerate edges: rounding in the sqrt can otherwise leave
	// lo a few ulps above 0 at k=0 (or hi below 1 at k=n), violating the
	// invariant that the interval contains the sample proportion.
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonFrac returns the Wilson score interval for the mean of a
// [0, 1]-bounded variable with observed sum over n observations,
// treating the mean as a pseudo-proportion (fractional success count).
// For a genuinely binary variable it reduces exactly to Wilson; for a
// continuous quality score in [0, 1] it is a conservative
// "Wilson-style" interval — the variance bound p(1-p) dominates the
// true variance of any [0, 1] variable with that mean — which is what
// the mc engine reports for per-point quality distributions.
// WilsonFrac(sum, 0, z) returns the uninformative interval [0, 1].
func WilsonFrac(sum float64, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if sum < 0 {
		sum = 0
	}
	nn := float64(n)
	if sum > nn {
		sum = nn
	}
	p := sum / nn
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)) / denom
	lo = center - half
	hi = center + half
	if sum == 0 || lo < 0 {
		lo = 0
	}
	if sum == nn || hi > 1 {
		hi = 1
	}
	return lo, hi
}
