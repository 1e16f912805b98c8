// Package fi implements the paper's four timing-error injection models
// behind a single interface (Table 2 of the paper):
//
//	model A  — fixed-probability random bit flips (no timing data)
//	model B  — deterministic per-endpoint STA period violation
//	model B+ — model B with supply-voltage noise modulating path delays
//	model C  — the proposed statistical model: per-instruction,
//	           per-endpoint violation probabilities from DTA CDFs,
//	           rescaled every cycle by the sampled supply noise
//
// A Model is immutable and shareable; NewTrial binds it to a
// trial-private RNG stream, producing an injector compatible with the
// cpu.Injector interface (matched structurally, so cpu need not import
// fi).
//
// In the dependency graph, fi depends on circuit/dta/timing/stats, and
// on cpu only for the golden trace's query record (cpu.TraceEvent); core instantiates and caches its models, cpu calls the injectors
// cycle by cycle, and mc drives the trace-scan (replay.go) and
// first-fault sampling (hazard.go) fast paths built from them.
package fi

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Semantics selects what a violated endpoint flip-flop captures.
type Semantics uint8

// Fault semantics. The paper flips register bits (FlipBit); StaleCapture
// keeps the previously latched value at violated endpoints, the other
// physically plausible outcome of a setup violation, and is exercised by
// the ablation benches.
const (
	FlipBit Semantics = iota
	StaleCapture
)

// String names the semantics.
func (s Semantics) String() string {
	if s == StaleCapture {
		return "stale-capture"
	}
	return "flip-bit"
}

// Sampling selects how model C draws violated endpoint sets.
type Sampling uint8

// Sampling modes. Independent evaluates each endpoint against its own
// CDF, the paper-literal reading of Sec. 3.4. Joint bootstraps whole
// characterization cycles, preserving the correlation between endpoints
// that share path segments.
const (
	Independent Sampling = iota
	Joint
)

// String names the sampling mode.
func (s Sampling) String() string {
	if s == Joint {
		return "joint"
	}
	return "independent"
}

// Injector mirrors cpu.Injector; see that type for the contract.
type Injector interface {
	Inject(op isa.Op, result, prevResult uint32, flag, prevFlag bool) (uint32, bool, int)
}

// Model is an immutable injection model bound to one operating point.
type Model interface {
	// Name identifies the model in reports ("A", "B", "B+", "C").
	Name() string
	// NewTrial returns a fresh injector drawing randomness from rng.
	NewTrial(rng *stats.TrialRand) Injector
}

// apply realizes the configured fault semantics for a set of violated
// endpoints. The returned count is the number of endpoint violations
// (the paper's "FIs"), independent of whether the captured value
// happened to coincide with the correct one.
//
// Result endpoints follow the configured semantics (the paper flips
// register bits). The flag endpoint — our extension that makes compares
// architecturally vulnerable — is treated as a metastable capture under
// FlipBit semantics: the flop resolves to a uniformly random value.
// Deterministic inversion would make heavily over-scaled compares behave
// like correct compares with inverted conditions, letting counted loops
// terminate cleanly and programs "finish" again far beyond total failure,
// which is neither physical nor what the paper observes.
func apply(sem Semantics, rng *rand.Rand, viol uint32, flagViol bool, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	n := bits.OnesCount32(viol)
	if flagViol {
		n++
	}
	if n == 0 {
		return result, flag, 0
	}
	out, outFlag := result, flag
	switch sem {
	case FlipBit:
		out = result ^ viol
		if flagViol {
			outFlag = rng.Float64() < 0.5
		}
	case StaleCapture:
		out = result&^viol | prev&viol
		if flagViol {
			outFlag = prevFlag
		}
	}
	return out, outFlag, n
}

// noiseScale precomputes the per-cycle delay modulation factor
// m = Factor(V+dv)/Factor(V) over the clipped noise range, so the hot
// path replaces a math.Pow with a table interpolation.
type noiseScale struct {
	sigma float64
	clip  float64
	table []float64 // m over dv in [-clip*sigma, +clip*sigma]
}

func newNoiseScale(model timing.VddDelay, v float64, noise timing.Noise) *noiseScale {
	ns := &noiseScale{sigma: noise.Sigma, clip: noise.Clip}
	if noise.Sigma == 0 {
		return ns
	}
	const steps = 2048
	ns.table = make([]float64, steps+1)
	lo := -noise.Clip * noise.Sigma
	hi := +noise.Clip * noise.Sigma
	for i := 0; i <= steps; i++ {
		dv := lo + (hi-lo)*float64(i)/steps
		ns.table[i] = model.FactorRel(v, dv)
	}
	return ns
}

// sample draws a noise value and returns the delay factor m for this
// cycle (1 when no noise is configured).
func (ns *noiseScale) sample(rng *rand.Rand) float64 {
	if ns.sigma == 0 {
		return 1
	}
	return ns.at(rng.NormFloat64() * ns.sigma)
}

// at evaluates the delay factor at a noise value dv (volts) through the
// same clipping and table interpolation the per-cycle sampler uses, so
// the marginalization and conditional-sampling paths below see exactly
// the distribution of sample.
func (ns *noiseScale) at(dv float64) float64 {
	lim := ns.clip * ns.sigma
	if dv > lim {
		dv = lim
	} else if dv < -lim {
		dv = -lim
	}
	pos := (dv + lim) / (2 * lim) * float64(len(ns.table)-1)
	i := int(pos)
	if i >= len(ns.table)-1 {
		return ns.table[len(ns.table)-1]
	}
	frac := pos - float64(i)
	return ns.table[i]*(1-frac) + ns.table[i+1]*frac
}

// safeMargin is the relative margin rejectFrom keeps between the delay
// factor it certifies and the exact crossing, far above the few ulps of
// rounding in the table interpolation and the period division.
const safeMargin = 1e-9

// rejectFrom returns a noise offset dvSafe such that every sampled
// offset dv >= dvSafe yields periodPs/at(dv) >= maxPs, the effective
// period at which nothing violates: the per-cycle injector can then
// reject the query without interpolating or dividing. dvSafe is one
// table node past the first node from which the whole table tail sits
// below periodPs/maxPs (with safeMargin), so at(dv) interpolates only
// within that tail; +Inf when no offset qualifies (or without noise,
// where no offset is drawn), -Inf when every offset does.
func (ns *noiseScale) rejectFrom(periodPs, maxPs float64) float64 {
	if ns.sigma == 0 {
		return math.Inf(1)
	}
	target := periodPs / maxPs * (1 - safeMargin)
	n := len(ns.table) - 1
	i := n + 1 // table[i:] <= target
	for i > 0 && ns.table[i-1] <= target {
		i--
	}
	lim := ns.clip * ns.sigma
	switch {
	case i == 0:
		return math.Inf(-1)
	case i > n:
		return math.Inf(1)
	case i == n:
		return lim // at(lim) is table[n]; larger offsets clip to lim
	}
	return math.Min(lim, -lim+float64(i+1)*(2*lim)/float64(n))
}

// maxFactor returns the largest delay factor the noise can produce (the
// worst-case droop saturation atom; 1 without noise).
func (ns *noiseScale) maxFactor() float64 {
	if ns.sigma == 0 {
		return 1
	}
	return ns.table[0]
}

// exceedProb returns P(m > t) over the noise distribution, exactly: the
// table is non-increasing in dv, so {m > t} = {dv < dv_t} for the
// piecewise-linear crossing dv_t, and the clipped Gaussian measure of
// that event is a normal CDF (the saturation atom at -clip*sigma is
// included by construction). Without noise m is deterministically 1.
func (ns *noiseScale) exceedProb(t float64) float64 {
	if ns.sigma == 0 {
		if t < 1 {
			return 1
		}
		return 0
	}
	n := len(ns.table) - 1
	if t >= ns.table[0] {
		return 0
	}
	if t < ns.table[n] {
		return 1
	}
	// Largest index lo with table[lo] > t (exists: table[0] > t).
	lo, hi := 0, n
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ns.table[mid] > t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := 0.0
	if ns.table[lo] != ns.table[lo+1] {
		frac = (ns.table[lo] - t) / (ns.table[lo] - ns.table[lo+1])
	}
	lim := ns.clip * ns.sigma
	dv := -lim + (float64(lo)+frac)*(2*lim)/float64(n)
	return stats.NormalCDF(dv / ns.sigma)
}

// exceedFactor draws a delay factor conditioned on m > t by inverting
// the noise CDF over the exceed mass pExceed (= exceedProb(t), > 0):
// the quantile below the -clip*sigma tail is the saturation atom, the
// rest maps through the normal quantile function. This is the fork-query
// noise draw of first-fault sampling for the threshold models.
func (ns *noiseScale) exceedFactor(rng *rand.Rand, t, pExceed float64) float64 {
	if ns.sigma == 0 {
		return 1
	}
	w := rng.Float64() * pExceed
	lim := ns.clip * ns.sigma
	dv := -lim
	if w > stats.NormalCDF(-ns.clip) {
		dv = ns.sigma * stats.NormalQuantile(w)
	}
	m := ns.at(dv)
	if m <= t {
		// Quantile round-off at the crossing can land a hair outside the
		// conditioned region; nudge back inside.
		m = math.Nextafter(t, math.Inf(1))
	}
	return m
}

// marginalSteps is the trapezoid resolution of marginal. The integrand
// is bounded in [0, 1], so the discretization error is below ~1e-5
// absolute — far inside the Monte-Carlo noise floor the marginal feeds.
const marginalSteps = 1 << 16

// marginal integrates a conditional injection probability pInj(m) over
// the noise distribution of the delay factor m: the saturation atoms at
// +/- clip*sigma carry their exact Gaussian tail mass, the interior is a
// trapezoid against the normal density over the same table interpolation
// the per-cycle sampler uses. The result is the per-query injection
// probability with the supply noise integrated out.
func (ns *noiseScale) marginal(pInj func(m float64) float64) float64 {
	if ns.sigma == 0 {
		return pInj(1)
	}
	tail := stats.NormalCDF(-ns.clip)
	p := tail * (pInj(ns.table[0]) + pInj(ns.table[len(ns.table)-1]))
	lim := ns.clip * ns.sigma
	h := 2 * lim / marginalSteps
	g := func(dv float64) float64 {
		x := dv / ns.sigma
		return pInj(ns.at(dv)) * math.Exp(-0.5*x*x)
	}
	sum := 0.5 * (g(-lim) + g(lim))
	for i := 1; i < marginalSteps; i++ {
		sum += g(-lim + float64(i)*h)
	}
	p += sum * h / (ns.sigma * math.Sqrt(2*math.Pi))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// conditionedFactor draws a delay factor from the noise distribution
// conditioned on injection, for conditional injection probabilities
// pInj that are monotone non-decreasing in m with upper bound
// pUB = pInj(maxFactor()). Rejection from the unconditioned noise draw:
// the saturation atom guarantees the marginal is at least
// NormalCDF(-clip)*pUB, so the expected number of rounds is bounded by
// 1/NormalCDF(-clip) (about 44 at the paper's 2-sigma clip) regardless
// of how rare injection is. A retry budget caps the tail; on exhaustion
// the draw falls back to the worst-case droop, where pInj peaks.
func (ns *noiseScale) conditionedFactor(rng *rand.Rand, pInj func(m float64) float64, pUB float64) float64 {
	if ns.sigma == 0 || pUB <= 0 {
		return ns.maxFactor()
	}
	const budget = 4096
	for i := 0; i < budget; i++ {
		m := ns.at(rng.NormFloat64() * ns.sigma)
		if rng.Float64()*pUB < pInj(m) {
			return m
		}
	}
	return ns.table[0]
}

// ---------------------------------------------------------------------
// Model A

// ModelA injects purely random bit flips with a fixed per-endpoint,
// per-cycle probability, with no relation to timing, voltage or
// instruction type beyond targeting the EX-stage endpoints.
type ModelA struct {
	// Prob is the per-endpoint flip probability per eligible cycle.
	Prob float64
	Sem  Semantics
}

// Name implements Model.
func (m *ModelA) Name() string { return "A" }

// NewTrial implements Model.
func (m *ModelA) NewTrial(rng *stats.TrialRand) Injector {
	return &modelAInjector{cfg: m, rng: rng}
}

type modelAInjector struct {
	cfg *ModelA
	rng *stats.TrialRand
}

func (in *modelAInjector) Inject(op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	var viol uint32
	for e := 0; e < circuit.Width; e++ {
		if in.rng.Float64() < in.cfg.Prob {
			viol |= 1 << uint(e)
		}
	}
	flagViol := isa.IsCompare(op) && in.rng.Float64() < in.cfg.Prob
	return apply(in.cfg.Sem, in.rng.Rand, viol, flagViol, result, prev, flag, prevFlag)
}

// endpointsFor counts the endpoints one query of op exposes: the result
// bits, plus the flag flop for compares.
func endpointsFor(op isa.Op) int {
	if isa.IsCompare(op) {
		return circuit.NumEndpoints
	}
	return circuit.Width
}

// MarginalProb implements HazardModel: with n independent endpoints at
// flip probability p, a query injects with probability 1 - (1-p)^n
// (model A has no noise to integrate out).
func (m *ModelA) MarginalProb(op isa.Op) float64 {
	return -math.Expm1(float64(endpointsFor(op)) * math.Log1p(-m.Prob))
}

// SampleAt implements HazardModel: the endpoint subset is drawn
// conditioned on being non-empty via the exact first-index
// decomposition (no rejection), then the configured semantics apply.
func (m *ModelA) SampleAt(rng *rand.Rand, op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	n := endpointsFor(op)
	viol, flagViol := sampleSubsetUniform(rng, m.Prob, n)
	return apply(m.Sem, rng, viol, flagViol, result, prev, flag, prevFlag)
}

// sampleSubsetUniform draws a subset of n equal-probability endpoints
// conditioned on at least one being set: the first violated index k
// follows its exact conditional law P(k | >=1) = (1-p)^k p / (1-(1-p)^n)
// — sampled sequentially as P(k violates | none before, >=1 remaining) =
// p / (1 - (1-p)^(n-k)), which telescopes to the same distribution —
// and the endpoints above k are unconditioned Bernoulli draws. Endpoint
// index circuit.FlagEndpoint is the compare flag.
func sampleSubsetUniform(rng *rand.Rand, p float64, n int) (viol uint32, flagViol bool) {
	set := func(e int) {
		if e == circuit.FlagEndpoint {
			flagViol = true
		} else {
			viol |= 1 << uint(e)
		}
	}
	first := n - 1
	for k := 0; k < n-1; k++ {
		pk := p / -math.Expm1(float64(n-k)*math.Log1p(-p))
		if rng.Float64() < pk {
			first = k
			break
		}
	}
	set(first)
	for e := first + 1; e < n; e++ {
		if rng.Float64() < p {
			set(e)
		}
	}
	return viol, flagViol
}

// ---------------------------------------------------------------------
// Models B and B+

// ModelB injects deterministically whenever the clock period (modulated
// by supply noise for B+) violates the static worst-case path delay to an
// endpoint, for every ALU instruction regardless of type — the paper's
// pessimistic static model (Sec. 3.2/3.3). Sigma = 0 yields model B;
// sigma > 0 yields model B+.
type ModelB struct {
	sem      Semantics
	periodPs float64
	noise    *noiseScale
	sigma    float64

	// thresholds[i] is the delay factor m above which endpoint
	// order[i] violates; ascending. cumMask[i] is the violation mask
	// when thresholds[0..i] are all exceeded.
	thresholds []float64
	cumMask    []uint32
	cumFlag    []bool
	// thrMask is the smallest threshold whose cumulative violation mask
	// contains a result bit — the injection onset for non-compare ops,
	// whose flag-endpoint violations do not count.
	thrMask float64
}

// NewModelB builds a model B/B+ instance for one operating point.
func NewModelB(alu *circuit.ALU, model timing.VddDelay, vdd, fMHz, sigma float64, sem Semantics) *ModelB {
	period := circuit.PeriodPs(fMHz)
	factor := model.Factor(vdd)
	worst := alu.WorstEndpointPsAt(factor)
	setup := alu.Config.SetupPs * factor

	m := &ModelB{
		sem:      sem,
		periodPs: period,
		sigma:    sigma,
		noise:    newNoiseScale(model, vdd, timing.NewNoise(sigma)),
	}
	// Endpoint e violates iff (worst_e + setup) * mNoise > period,
	// i.e. mNoise > period / (worst_e + setup).
	type ep struct {
		thr  float64
		bit  int
		flag bool
	}
	eps := make([]ep, 0, circuit.NumEndpoints)
	for e := 0; e < circuit.Width; e++ {
		eps = append(eps, ep{thr: period / (worst[e] + setup), bit: e})
	}
	eps = append(eps, ep{thr: period / (worst[circuit.FlagEndpoint] + setup), flag: true})
	sort.Slice(eps, func(i, j int) bool { return eps[i].thr < eps[j].thr })
	var mask uint32
	fl := false
	for _, e := range eps {
		if e.flag {
			fl = true
		} else {
			mask |= 1 << uint(e.bit)
		}
		m.thresholds = append(m.thresholds, e.thr)
		m.cumMask = append(m.cumMask, mask)
		m.cumFlag = append(m.cumFlag, fl)
	}
	for i, msk := range m.cumMask {
		if msk != 0 {
			m.thrMask = m.thresholds[i]
			break
		}
	}
	return m
}

// Name implements Model.
func (m *ModelB) Name() string {
	if m.sigma > 0 {
		return "B+"
	}
	return "B"
}

// FirstFIMHz returns the lowest frequency at which this operating point
// can inject at all: the STA limit for model B, shifted down by the
// worst-case noise droop for B+ (the paper's 661/588 MHz anchors).
func (m *ModelB) FirstFIMHz() float64 {
	// Smallest threshold corresponds to the worst endpoint.
	worstPeriod := m.periodPs / m.thresholds[0] // = worst + setup at V
	mMax := 1.0
	if m.noise.sigma > 0 {
		mMax = m.noise.table[0] // largest slowdown at -clip*sigma
	}
	return 1e6 / (worstPeriod * mMax)
}

// NewTrial implements Model.
func (m *ModelB) NewTrial(rng *stats.TrialRand) Injector {
	return &modelBInjector{cfg: m, rng: rng.Rand}
}

type modelBInjector struct {
	cfg *ModelB
	rng *rand.Rand
}

func (in *modelBInjector) Inject(op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	c := in.cfg
	mNoise := c.noise.sample(in.rng)
	viol, flagViol := c.violationsAt(mNoise, op)
	return apply(c.sem, in.rng, viol, flagViol, result, prev, flag, prevFlag)
}

// violationsAt resolves the violation set at a sampled delay factor:
// every endpoint whose threshold the factor exceeds, with the flag
// endpoint counting only on compares. Shared by Inject and SampleAt.
func (m *ModelB) violationsAt(mNoise float64, op isa.Op) (uint32, bool) {
	// Find how many thresholds are exceeded.
	lo, hi := 0, len(m.thresholds)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.thresholds[mid] < mNoise {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	return m.cumMask[lo-1], m.cumFlag[lo-1] && isa.IsCompare(op)
}

// firstThreshold returns the smallest delay factor above which a query
// with op injects at least one countable endpoint: the very first
// threshold for compares (the flag flop counts), the first threshold
// with a result bit otherwise.
func (m *ModelB) firstThreshold(op isa.Op) float64 {
	if isa.IsCompare(op) {
		return m.thresholds[0]
	}
	return m.thrMask
}

// MarginalProb implements HazardModel: the probability that the sampled
// delay factor crosses the op's injection onset, computed exactly from
// the clipped-Gaussian noise model (deterministically 0 or 1 for model
// B without noise).
func (m *ModelB) MarginalProb(op isa.Op) float64 {
	return m.noise.exceedProb(m.firstThreshold(op))
}

// SampleAt implements HazardModel: the delay factor is drawn conditioned
// on crossing the op's injection onset by exact CDF inversion, then the
// violation set and semantics follow the per-cycle path.
func (m *ModelB) SampleAt(rng *rand.Rand, op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	t := m.firstThreshold(op)
	mNoise := m.noise.exceedFactor(rng, t, m.noise.exceedProb(t))
	viol, flagViol := m.violationsAt(mNoise, op)
	return apply(m.sem, rng, viol, flagViol, result, prev, flag, prevFlag)
}

// ---------------------------------------------------------------------
// Model C

// ModelC is the paper's statistical fault-injection model: violation
// probabilities per endpoint, conditioned on the instruction, evaluated
// from DTA CDFs that are rescaled every cycle by the sampled supply
// noise (Fig. 3 of the paper).
type ModelC struct {
	sem      Semantics
	sampling Sampling
	periodPs float64
	noise    *noiseScale

	char   *dta.Characterizer
	vdd    float64
	tables [isa.NumOps]*opTable
	// filled[op] publishes tables[op] once it is filled; it is set from
	// the start for ops without a table.
	filled [isa.NumOps]atomic.Bool
}

// opTable is one model's view of a characterization: the violation
// grid, shared with every other model-C instance at the same
// characterization key and voltage, plus the state that depends on
// this model's operating point. Ops sharing a characterization key
// share one opTable within a model. A table starts as a shell holding
// only its key; ModelC.table fills the rest on first use.
type opTable struct {
	key  dta.Key
	fill sync.Once

	g *dta.ViolationGrid
	// ch is the raw characterization, loaded for joint sampling only.
	ch *dta.Characterization
	// dvSafe is the noise offset at and above which a query cannot
	// inject at this model's period (noiseScale.rejectFrom).
	dvSafe float64

	// haz is the table's marginal per-query injection probability,
	// built lazily on first MarginalProb use; it depends on the model's
	// operating point and sampling mode, which are fixed per opTable.
	haz struct {
		once sync.Once
		prob float64
	}
	// joint supports joint conditional sampling, built lazily by
	// jointIndex: MaxPerCycle ascending, and cycle indices by
	// MaxPerCycle descending (the first k entries are exactly the k
	// violating cycles at any effective period).
	joint struct {
		once      sync.Once
		sortedMax []float64
		order     []int
	}
}

// gridIndex maps an effective period to its probability-grid index,
// exactly as the per-cycle injector does.
func (t *opTable) gridIndex(eff float64) int {
	idx := int(eff / t.g.StepPs)
	if idx < 0 {
		idx = 0
	}
	return idx
}

// jointIndex builds the table's joint-sampling cycle index once.
func (t *opTable) jointIndex() {
	t.joint.once.Do(func() {
		n := t.ch.Cycles
		t.joint.sortedMax = make([]float64, n)
		copy(t.joint.sortedMax, t.ch.MaxPerCycle)
		sort.Float64s(t.joint.sortedMax)
		t.joint.order = make([]int, n)
		for i := range t.joint.order {
			t.joint.order[i] = i
		}
		sort.SliceStable(t.joint.order, func(a, b int) bool {
			return t.ch.MaxPerCycle[t.joint.order[a]] > t.ch.MaxPerCycle[t.joint.order[b]]
		})
	})
}

// violCycles counts characterization cycles whose worst arrival plus
// setup exceeds the effective period (requires jointIndex).
func (t *opTable) violCycles(eff float64) int {
	x := eff - t.ch.SetupPs
	i := sort.SearchFloat64s(t.joint.sortedMax, math.Nextafter(x, math.Inf(1)))
	return len(t.joint.sortedMax) - i
}

// violationsAtCycle folds characterization cycle j's arrivals into a
// violation set at the effective period — the joint-sampling capture
// law, shared by Inject and SampleAt.
func (t *opTable) violationsAtCycle(j int, eff float64) (viol uint32, flagViol bool) {
	for e, row := range t.ch.Arrivals {
		if row[j]+t.ch.SetupPs > eff {
			if e == circuit.FlagEndpoint {
				flagViol = true
			} else {
				viol |= 1 << uint(e)
			}
		}
	}
	return viol, flagViol
}

// violationsOf maps a hit mask over the grid's active endpoints (bit k
// for Active[k]) to a violation set.
func (t *opTable) violationsOf(hits uint64) (viol uint32, flagViol bool) {
	for ; hits != 0; hits &= hits - 1 {
		e := t.g.Active[bits.TrailingZeros64(hits)]
		if e == circuit.FlagEndpoint {
			flagViol = true
		} else {
			viol |= 1 << uint(e)
		}
	}
	return viol, flagViol
}

// sampleSubsetAt draws the violated endpoint subset at grid index idx
// conditioned on it being non-empty: the first violated active endpoint
// follows its exact conditional law (the heterogeneous-probability
// analogue of sampleSubsetUniform), the endpoints after it are
// unconditioned Bernoulli draws.
func (t *opTable) sampleSubsetAt(rng *rand.Rand, idx int) (viol uint32, flagViol bool) {
	row := t.g.Row(idx)
	r := rng.Float64() * (1 - t.g.PNone[idx])
	acc, pref := 0.0, 1.0
	first, lastNonzero := -1, -1
	for k, p := range row {
		if p > 0 {
			lastNonzero = k
		}
		acc += pref * p
		if r < acc {
			first = k
			break
		}
		pref *= 1 - p
	}
	if first < 0 {
		// Round-off at the top of the conditional mass (or a degenerate
		// grid slot): fall back to the last endpoint that can violate
		// here at all.
		first = lastNonzero
		if first < 0 {
			first = len(row) - 1
		}
	}
	hits := uint64(1) << uint(first)
	for k := first + 1; k < len(row); k++ {
		if rng.Float64() < row[k] {
			hits |= 1 << uint(k)
		}
	}
	return t.violationsOf(hits)
}

// ModelCConfig carries model C construction parameters.
type ModelCConfig struct {
	Vdd      float64
	FreqMHz  float64
	Sigma    float64
	Profile  dta.Profile
	Sem      Semantics
	Sampling Sampling
}

// NewModelC builds the statistical model for one operating point. It
// characterizes nothing: each DTA key's table is filled on the first
// query of an op with that key, so a model pays only for the ALU units
// its workload executes. The profile's generators are checked here, so
// a bad profile still fails at construction.
func NewModelC(ch *dta.Characterizer, cfg ModelCConfig) (*ModelC, error) {
	m := &ModelC{
		sem:      cfg.Sem,
		sampling: cfg.Sampling,
		periodPs: circuit.PeriodPs(cfg.FreqMHz),
		noise:    newNoiseScale(ch.Model, cfg.Vdd, timing.NewNoise(cfg.Sigma)),
		char:     ch,
		vdd:      cfg.Vdd,
	}
	shells := map[dta.Key]*opTable{}
	for _, op := range isa.AllOps() {
		if !isa.IsALU(op) {
			m.filled[op].Store(true)
			continue
		}
		key := dta.KeyFor(op, cfg.Profile)
		t, ok := shells[key]
		if !ok {
			if _, err := dta.Gen(key.Gen); err != nil {
				return nil, err
			}
			t = &opTable{key: key}
			shells[key] = t
		}
		m.tables[op] = t
	}
	return m, nil
}

// table returns op's table, filled, or nil for a non-ALU op. Past the
// op's first query it costs one atomic load; it stays small enough to
// inline into Inject.
func (m *ModelC) table(op isa.Op) *opTable {
	if !m.filled[op].Load() {
		m.fillTable(op)
	}
	return m.tables[op]
}

// fillTable loads (or builds) op's violation grid at the model's
// voltage, once per table however many goroutines and ops ask at the
// same time, then publishes the table for op. Only joint sampling reads
// the raw characterization, and it asks for it first, so a cold grid is
// counted from the matrix At keeps rather than from a second
// simulation; independent sampling never keeps it.
func (m *ModelC) fillTable(op isa.Op) {
	t := m.tables[op]
	t.fill.Do(func() {
		var err error
		if m.sampling == Joint {
			t.ch, err = m.char.At(t.key, m.vdd)
		}
		if err == nil {
			t.g, err = m.char.GridAt(t.key, m.vdd)
		}
		if err != nil {
			// GridAt and At fail only on an unknown generator, which
			// NewModelC rejects.
			panic("fi: model C table: " + err.Error())
		}
		t.dvSafe = m.noise.rejectFrom(m.periodPs, t.g.MaxPs)
	})
	m.filled[op].Store(true)
}

// Name implements Model.
func (m *ModelC) Name() string { return "C" }

// NewTrial implements Model.
func (m *ModelC) NewTrial(rng *stats.TrialRand) Injector {
	return &modelCInjector{cfg: m, rng: rng}
}

// injectProbAt returns the conditional probability that one query on
// this table injects, given the cycle's sampled delay factor — the
// quantity the per-cycle injector realizes with its Bernoulli draws,
// evaluated in closed form. Shared by the marginalization and the
// conditioned noise sampler.
func (m *ModelC) injectProbAt(t *opTable, mNoise float64) float64 {
	eff := m.periodPs / mNoise
	if eff >= t.g.MaxPs {
		return 0
	}
	if m.sampling == Joint {
		return float64(t.violCycles(eff)) / float64(t.ch.Cycles)
	}
	return 1 - t.g.PNone[t.gridIndex(eff)]
}

// hazardOf lazily computes the table's marginal injection probability:
// the noise integrated out numerically over the noiseScale table. An
// opTable belongs to one model instance (only its violation grid is
// shared across models), so a single sync.Once per table suffices.
func (m *ModelC) hazardOf(t *opTable) float64 {
	t.haz.once.Do(func() {
		if m.sampling == Joint {
			t.jointIndex()
		}
		t.haz.prob = m.noise.marginal(func(f float64) float64 { return m.injectProbAt(t, f) })
	})
	return t.haz.prob
}

// MarginalProb implements HazardModel: the injection probability of one
// query with op, marginalized over the supply-noise distribution.
func (m *ModelC) MarginalProb(op isa.Op) float64 {
	t := m.table(op)
	if t == nil {
		return 0
	}
	return m.hazardOf(t)
}

// SampleAt implements HazardModel: the delay factor is drawn from the
// noise distribution conditioned on injection (bounded rejection against
// the worst-droop upper bound), then the violated endpoint subset is
// drawn conditioned on non-emptiness — exactly the law of Inject given
// that it flips at least one countable endpoint.
func (m *ModelC) SampleAt(rng *rand.Rand, op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	t := m.table(op)
	if t == nil {
		return result, flag, 0 // unreachable: MarginalProb(op) = 0
	}
	if m.sampling == Joint {
		t.jointIndex()
	}
	pInj := func(f float64) float64 { return m.injectProbAt(t, f) }
	mNoise := m.noise.conditionedFactor(rng, pInj, pInj(m.noise.maxFactor()))
	eff := m.periodPs / mNoise
	var viol uint32
	var flagViol bool
	if m.sampling == Joint {
		k := t.violCycles(eff)
		if k <= 0 {
			k = 1 // unreachable: conditioning guarantees >= 1 violating cycle
		}
		j := t.joint.order[rng.Intn(k)]
		viol, flagViol = t.violationsAtCycle(j, eff)
	} else {
		viol, flagViol = t.sampleSubsetAt(rng, t.gridIndex(eff))
	}
	if !isa.IsCompare(op) {
		flagViol = false
	}
	if viol == 0 && !flagViol {
		// Unreachable with the current unit mapping (only compare ops
		// use the flagged table, so the guard above can never discard
		// the sole violation), but if a non-compare op ever shares a
		// flagged table, keep SampleAt's >=1-flip contract by forcing
		// the strongest result-bit endpoint (the lowest-numbered one on
		// ties; endpoints outside Active never violate).
		row := t.g.Row(t.gridIndex(eff))
		best, bestP := 0, 0.0
		for k, e := range t.g.Active {
			if e < circuit.Width && row[k] > bestP {
				best, bestP = e, row[k]
			}
		}
		viol = 1 << uint(best)
	}
	return apply(m.sem, rng, viol, flagViol, result, prev, flag, prevFlag)
}

type modelCInjector struct {
	cfg *ModelC
	rng *stats.TrialRand
}

// rejectBudget bounds the independent-sampling rejection loop: each
// round succeeds with probability 1 - pNone, but degenerate tables
// (near-zero probabilities alongside pNone < 1) could spin unboundedly,
// so after this many rounds the highest-probability active endpoint is
// forced instead.
const rejectBudget = 4096

// Inject is model C's per-cycle query. Its draws, in order (the
// contract DESIGN.md's "Model-C injection hot path" spells out): one
// NormFloat64 for the supply noise (none at sigma 0); then, for
// independent sampling inside the vulnerable zone, one uniform against
// the grid's pNone, and on injection up to rejectBudget rows of one
// uniform per active endpoint until a row hits; or, for joint sampling,
// one Intn cycle pick; finally FlipBit's flag uniform when the flag
// endpoint violates.
func (in *modelCInjector) Inject(op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	c := in.cfg
	t := c.table(op)
	if t == nil {
		return result, flag, 0
	}
	eff := c.periodPs
	if c.noise.sigma != 0 {
		dv := in.rng.NormFloat64() * c.noise.sigma
		if dv >= t.dvSafe {
			return result, flag, 0 // eff >= MaxPs for certain
		}
		eff /= c.noise.at(dv)
	}
	if eff >= t.g.MaxPs {
		return result, flag, 0
	}
	var viol uint32
	var flagViol bool
	switch c.sampling {
	case Independent:
		idx := t.gridIndex(eff)
		if in.rng.Float64() < t.g.PNone[idx] {
			return result, flag, 0
		}
		// At least one endpoint violates; sample the subset conditioned
		// on non-emptiness by rejection, one row of draws per round.
		row := t.g.Row(idx)
		hits := in.rng.BernoulliRows(row, rejectBudget)
		if hits == 0 {
			best := 0
			for k, p := range row {
				if p > row[best] {
					best = k
				}
			}
			hits = 1 << uint(best)
		}
		viol, flagViol = t.violationsOf(hits)
	case Joint:
		j := in.rng.Intn(t.ch.Cycles)
		if t.ch.MaxPerCycle[j]+t.ch.SetupPs <= eff {
			return result, flag, 0
		}
		viol, flagViol = t.violationsAtCycle(j, eff)
	}
	// Only compares latch the flag endpoint.
	if !isa.IsCompare(op) {
		flagViol = false
	}
	return apply(c.sem, in.rng.Rand, viol, flagViol, result, prev, flag, prevFlag)
}

// ---------------------------------------------------------------------

// NullModel never injects; it produces golden runs through the same
// machinery.
type NullModel struct{}

// Name implements Model.
func (NullModel) Name() string { return "none" }

// NewTrial implements Model.
func (NullModel) NewTrial(*stats.TrialRand) Injector { return nullInjector{} }

// MarginalProb implements HazardModel: the null model never injects, so
// first-fault sampling resolves every trial to the golden run.
func (NullModel) MarginalProb(isa.Op) float64 { return 0 }

// SampleAt implements HazardModel; unreachable under a zero hazard.
func (NullModel) SampleAt(_ *rand.Rand, _ isa.Op, r, _ uint32, f, _ bool) (uint32, bool, int) {
	return r, f, 0
}

type nullInjector struct{}

func (nullInjector) Inject(_ isa.Op, r, _ uint32, f, _ bool) (uint32, bool, int) {
	return r, f, 0
}
