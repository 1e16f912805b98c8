package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {4, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.Exceed(3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Exceed(3) = %v, want 0.25", got)
	}
	if e.Min() != 1 || e.Max() != 4 {
		t.Errorf("min/max = %v/%v, want 1/4", e.Min(), e.Max())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.P(1) != 0 || e.Exceed(1) != 1 {
		t.Errorf("empty ECDF P/Exceed wrong")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Errorf("empty ECDF quantile should be NaN")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if q := e.Quantile(0.5); q != 30 {
		t.Errorf("median = %v, want 30", q)
	}
	if q := e.Quantile(0.2); q != 10 {
		t.Errorf("q(0.2) = %v, want 10", q)
	}
	if q := e.Quantile(1); q != 50 {
		t.Errorf("q(1) = %v, want 50", q)
	}
}

// Property: P is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		e := NewECDF(samples)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		pl, ph := e.P(lo), e.P(hi)
		return pl <= ph && pl >= 0 && ph <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnline(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("n = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", o.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %v, want %v", o.Var(), 32.0/7.0)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestSubSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SubSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate sub-seed at %d", i)
		}
		seen[s] = true
	}
	if SubSeed(42, 7) != SubSeed(42, 7) {
		t.Errorf("SubSeed not deterministic")
	}
	if SubSeed(42, 7) == SubSeed(43, 7) {
		t.Errorf("SubSeed ignores master seed")
	}
}

func TestClippedNormal(t *testing.T) {
	rng := NewRand(1)
	sigma, clip := 10.0, 2.0
	var atLimit int
	for i := 0; i < 200000; i++ {
		x := ClippedNormal(rng, 0, sigma, clip)
		if math.Abs(x) > clip*sigma+1e-12 {
			t.Fatalf("sample %v exceeds clip %v", x, clip*sigma)
		}
		if math.Abs(math.Abs(x)-clip*sigma) < 1e-12 {
			atLimit++
		}
	}
	// P(|Z| > 2) is about 4.55%, so the saturation atoms should hold
	// roughly that much mass.
	frac := float64(atLimit) / 200000
	if frac < 0.035 || frac > 0.06 {
		t.Errorf("clip atom mass = %v, want about 0.0455", frac)
	}
}

func TestClippedNormalZeroSigma(t *testing.T) {
	rng := NewRand(1)
	for i := 0; i < 10; i++ {
		if x := ClippedNormal(rng, 0.7, 0, 2); x != 0.7 {
			t.Fatalf("sigma=0 must return mean, got %v", x)
		}
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("MSE = %v, want 4/3", got)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Errorf("length mismatch must error")
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if Linspace(1, 2, 0) != nil {
		t.Errorf("n=0 should be nil")
	}
	if xs := Linspace(3, 9, 1); len(xs) != 1 || xs[0] != 3 {
		t.Errorf("n=1 should be [lo]")
	}
}

func TestWilson(t *testing.T) {
	// Reference values for the 95% interval of 8/10 (e.g. Brown, Cai &
	// DasGupta 2001): about [0.490, 0.943].
	lo, hi := Wilson(8, 10, WilsonZ95)
	if math.Abs(lo-0.4901) > 0.005 || math.Abs(hi-0.9433) > 0.005 {
		t.Errorf("Wilson(8,10) = [%v, %v], want about [0.490, 0.943]", lo, hi)
	}
	// Degenerate inputs stay informative and inside [0, 1].
	lo, hi = Wilson(0, 20, WilsonZ95)
	if lo != 0 {
		t.Errorf("Wilson(0,20) lower = %v, want 0", lo)
	}
	if hi <= 0 || hi >= 0.3 {
		t.Errorf("Wilson(0,20) upper = %v, want small but positive", hi)
	}
	lo, hi = Wilson(20, 20, WilsonZ95)
	if hi != 1 {
		t.Errorf("Wilson(20,20) upper = %v, want 1", hi)
	}
	// Closed form for k=n: lo = n/(n+z^2).
	z2 := WilsonZ95 * WilsonZ95
	if want := 20 / (20 + z2); math.Abs(lo-want) > 1e-12 {
		t.Errorf("Wilson(20,20) lower = %v, want %v", lo, want)
	}
	// No trials: the uninformative interval.
	if lo, hi = Wilson(0, 0, WilsonZ95); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v, %v], want [0, 1]", lo, hi)
	}
	if WilsonLower(8, 10, WilsonZ95) >= WilsonUpper(8, 10, WilsonZ95) {
		t.Errorf("lower bound not below upper bound")
	}
}

func TestWilsonProperties(t *testing.T) {
	f := func(k8, n8 uint8) bool {
		n := int(n8%100) + 1
		k := int(k8) % (n + 1)
		lo, hi := Wilson(k, n, WilsonZ95)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonNarrowsWithN(t *testing.T) {
	prevLo, prevHi := Wilson(5, 10, WilsonZ95)
	for _, n := range []int{20, 40, 80, 160} {
		lo, hi := Wilson(n/2, n, WilsonZ95)
		if hi-lo >= prevHi-prevLo {
			t.Errorf("interval did not narrow at n=%d: [%v,%v] vs [%v,%v]", n, lo, hi, prevLo, prevHi)
		}
		prevLo, prevHi = lo, hi
	}
}

func TestNormalCDFAnchors(t *testing.T) {
	anchors := []struct{ x, p float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-2, 0.022750131948179195},
		{2, 0.9772498680518208},
	}
	for _, a := range anchors {
		if got := NormalCDF(a.x); math.Abs(got-a.p) > 1e-15 {
			t.Errorf("NormalCDF(%v) = %v, want %v", a.x, got, a.p)
		}
	}
	if !(NormalCDF(-37) > 0) || NormalCDF(-37) > 1e-290 {
		t.Errorf("deep lower tail lost precision: %v", NormalCDF(-37))
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 1e-12; p < 1; p += 0.001 {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-13 {
			t.Fatalf("NormalCDF(NormalQuantile(%v)) = %v (off by %v)", p, got, got-p)
		}
	}
	// Deep tails stay finite and invert.
	for _, p := range []float64{1e-300, 1e-30, 1e-15, 1 - 1e-15} {
		x := NormalQuantile(p)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Errorf("NormalQuantile(%v) = %v", p, x)
		}
		if got := NormalCDF(x); math.Abs(got-p) > 1e-13*math.Max(1, p/math.SmallestNonzeroFloat64) && math.Abs(got-p)/p > 1e-9 {
			t.Errorf("tail round trip at %v: %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Errorf("edge quantiles not infinite")
	}
	if NormalQuantile(0.5) != 0 {
		t.Errorf("median quantile = %v, want 0", NormalQuantile(0.5))
	}
	if math.Abs(NormalQuantile(0.975)-WilsonZ95) > 1e-12 {
		t.Errorf("NormalQuantile(0.975) = %v, want %v", NormalQuantile(0.975), WilsonZ95)
	}
}

func TestNewTrialRandDeterministic(t *testing.T) {
	a, b := NewTrialRand(12345), NewTrialRand(12345)
	for i := 0; i < 64; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d for same seed", i, x, y)
		}
	}
}

func TestNewTrialRandDistinctStreams(t *testing.T) {
	// Adjacent SubSeed-derived trial streams must not collide; use the
	// same keying as the Monte-Carlo engine.
	const master, trials, draws = 42, 32, 16
	seen := map[uint64][2]int{}
	for ti := 0; ti < trials; ti++ {
		rng := NewTrialRand(SubSeed(master, ti))
		for d := 0; d < draws; d++ {
			v := rng.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("trial %d draw %d collides with trial %d draw %d", ti, d, prev[0], prev[1])
			}
			seen[v] = [2]int{ti, d}
		}
	}
}

func TestNewTrialRandUniform(t *testing.T) {
	// Coarse uniformity: 16 equal bins over Float64, chi-square far from
	// pathological for a healthy generator.
	rng := NewTrialRand(7)
	const n, bins = 1 << 16, 16
	var counts [bins]int
	for i := 0; i < n; i++ {
		counts[int(rng.Float64()*bins)]++
	}
	exp := float64(n) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// 15 dof; 99.99th percentile ~ 44. Anything near that signals breakage.
	if chi2 > 60 {
		t.Fatalf("chi-square %v too large: %v", chi2, counts)
	}
}

// trialSeeds are the streams the TrialRand exactness tests sweep.
var trialSeeds = []int64{1, 7, 42, -3, SubSeed(9, 4)}

// TestTrialRandFloat64MatchesRand pins the inline Float64 against
// (*rand.Rand).Float64 over the same source, draw for draw.
func TestTrialRandFloat64MatchesRand(t *testing.T) {
	for _, seed := range trialSeeds {
		cur, ref := NewTrial(seed), NewTrialRand(seed)
		for i := 0; i < 1<<20; i++ {
			if a, b := cur.Float64(), ref.Float64(); a != b {
				t.Fatalf("seed %d draw %d: TrialRand %v, rand.Rand %v", seed, i, a, b)
			}
		}
	}
}

// TestBernoulliRowsMatchesRand pins the row kernel against the
// per-uniform loop it replaces: rounds of one (*rand.Rand).Float64 per
// probability, stopping after the first round with a hit. Rows mix
// zeros, tiny, moderate and certain probabilities, lengths run 1..64,
// and *rand.Rand draws are interleaved to show both views share one
// stream.
func TestBernoulliRowsMatchesRand(t *testing.T) {
	gen := NewRand(3)
	pick := func() float64 {
		switch gen.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1e-3 * gen.Float64()
		case 2:
			return 1
		default:
			return gen.Float64()
		}
	}
	for _, seed := range trialSeeds {
		cur, ref := NewTrial(seed), NewTrialRand(seed)
		for draws := 0; draws < 1<<20; {
			p := make([]float64, 1+gen.Intn(64))
			for k := range p {
				p[k] = pick()
			}
			rounds := 1 + gen.Intn(8)
			var want uint64
			for r := 0; r < rounds && want == 0; r++ {
				for k, pk := range p {
					if ref.Float64() < pk {
						want |= 1 << uint(k)
					}
					draws++
				}
			}
			if got := cur.BernoulliRows(p, rounds); got != want {
				t.Fatalf("seed %d after %d draws: row mask %#x, reference %#x", seed, draws, got, want)
			}
			if a, b := cur.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("seed %d after %d draws: interleaved NormFloat64 %v vs %v", seed, draws, a, b)
			}
		}
	}
}

// TestUnitFloatTopBoundary pins the raw-value mapping where the
// float64 conversion rounds up to exactly 1: Int63 values from
// 2^63-512 on (ties round to even, onto 2^63).
func TestUnitFloatTopBoundary(t *testing.T) {
	const top = oneFrom // smallest Int63 that rounds to 2^63
	for _, c := range []struct {
		int63 uint64
		one   bool
	}{
		{0, false}, {1, false}, {top - 1, false}, {top, true}, {top + 1, true}, {1<<63 - 1, true},
	} {
		for _, low := range []uint64{0, 1} { // the dropped low bit never matters
			raw := c.int63<<1 | low
			f := unitFloat(raw)
			if (f == 1) != c.one || f > 1 || f < 0 {
				t.Errorf("unitFloat(Int63 %#x) = %v, want one=%v", c.int63, f, c.one)
			}
			if want := float64(int64(c.int63)) / (1 << 63); f != want {
				t.Errorf("unitFloat(Int63 %#x) = %v, want %v", c.int63, f, want)
			}
		}
	}
}

// stateYielding returns a xoshiro256++ state whose next output is raw:
// the output is rotl(s0+s3, 23)+s0, so s3 follows from any s0.
func stateYielding(raw uint64) xoshiro256pp {
	x := xoshiro256pp{s0: 0x0123456789abcdef, s1: 0x9e3779b97f4a7c15, s2: 0xdeadbeefcafef00d}
	x.s3 = rotl64(raw-x.s0, 64-23) - x.s0
	return x
}

// TestTrialRandRedrawsOne drives Float64 and BernoulliRows into a raw
// value that maps to exactly 1 and checks both redraw it the way
// (*rand.Rand).Float64 does, leaving the streams in step.
func TestTrialRandRedrawsOne(t *testing.T) {
	raw := uint64(1<<63-256) << 1
	probe := stateYielding(raw)
	if got := probe.Uint64(); got != raw || unitFloat(got) != 1 {
		t.Fatalf("crafted state yields %#x (unit %v), want %#x mapping to 1", got, unitFloat(got), raw)
	}
	fresh := func() (*TrialRand, *rand.Rand) {
		cur := &TrialRand{src: stateYielding(raw)}
		cur.Rand = rand.New(&cur.src)
		refSrc := stateYielding(raw)
		return cur, rand.New(&refSrc)
	}

	cur, ref := fresh()
	a, b := cur.Float64(), ref.Float64()
	if a != b || a >= 1 {
		t.Fatalf("Float64 at the top boundary: TrialRand %v, rand.Rand %v", a, b)
	}
	if x, y := cur.Uint64(), ref.Uint64(); x != y {
		t.Fatalf("streams diverged after the redraw: %#x vs %#x", x, y)
	}

	cur, ref = fresh()
	p := []float64{0.5, 0.25, 0.75}
	var want uint64
	for k, pk := range p {
		if ref.Float64() < pk {
			want |= 1 << uint(k)
		}
	}
	if got := cur.BernoulliRows(p, 1); got != want {
		t.Fatalf("BernoulliRows at the top boundary: %#x, reference %#x", got, want)
	}
	if x, y := cur.Uint64(), ref.Uint64(); x != y {
		t.Fatalf("row streams diverged after the redraw: %#x vs %#x", x, y)
	}
}

// TestBelowIsExactThreshold pins the integer thresholds of the row
// kernel: for each probability, the Int63 values just below below(p)
// must map under p and the values from it on must not, wherever Float64
// does not redraw — the predicate is monotone in k, so that pins the
// whole range. Probabilities cover the
// exact-integer regime, the 2^53 crossover, powers of two, neighbours
// of 1 and degenerate inputs.
func TestBelowIsExactThreshold(t *testing.T) {
	ps := []float64{
		0, -1, math.NaN(), 1, 2, math.Inf(1), 5e-324, 1e-300, 1e-17, 0.5, 0.25, 1.0 / 3,
		math.Nextafter(1, 0), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1.0 / (1 << 10), math.Nextafter(1.0/(1<<10), 0), math.Nextafter(1.0/(1<<10), 1),
	}
	gen := NewRand(11)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [2^-70, 1), the spread of violation
		// probabilities, plus uniform values.
		ps = append(ps, math.Ldexp(1+gen.Float64(), -1-gen.Intn(70)), gen.Float64())
	}
	under := func(k uint64, p float64) bool { return unitFloat(k<<1) < p }
	for _, p := range ps {
		th := below(p)
		for _, k := range []uint64{th - 2, th - 1} {
			if k < th && k < oneFrom {
				if !under(k, p) {
					t.Fatalf("below(%v) = %d, but Int63 %d maps to %v >= p", p, th, k, unitFloat(k<<1))
				}
			}
		}
		for _, k := range []uint64{th, th + 1} {
			if k < oneFrom && under(k, p) {
				t.Fatalf("below(%v) = %d, but Int63 %d maps to %v < p", p, th, k, unitFloat(k<<1))
			}
		}
	}
}
