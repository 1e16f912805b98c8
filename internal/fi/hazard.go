// First-fault sampling: the closed-form alternative to scanning a
// golden trace query by query.
//
// Every injector in this package is memoryless — each Inject decision
// depends only on the op (and the trial RNG), never on earlier queries —
// so over a fixed golden query stream a trial's first injected fault is
// distributed as the first success of a sequence of independent
// Bernoulli trials with per-query hazards h_i = MarginalProb(op_i). A
// Hazard precomputes the prefix log-survival of that sequence, after
// which one uniform draw and a binary search replace the whole per-cycle
// replay scan: sample the first-fault index T from P(T > i) = S_{i+1},
// then draw the corrupted capture at T from the model conditioned on
// injection (SampleAt). Fault-free trials — the overwhelming majority
// below the point of first failure — cost O(log n) instead of O(n) RNG
// draws and table lookups.
//
// The resulting trial law matches the replay scan distributionally, not
// bit-for-bit: the RNG stream is consumed differently, so fixed-seed
// results differ while every aggregate converges to the same value (the
// statistical-equivalence tests in internal/mc pin this).
package fi

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// HazardModel is a Model that can additionally report, for one injector
// query, its injection probability with the supply noise integrated out
// (MarginalProb — "injection" meaning Inject would flip at least one
// countable endpoint), and draw a query's corrupted capture conditioned
// on injection (SampleAt, the fork-query draw of first-fault sampling).
// All models in this package implement it.
type HazardModel interface {
	Model
	// MarginalProb returns the probability that one query with op
	// injects, marginalized over the per-cycle noise distribution.
	MarginalProb(op isa.Op) float64
	// SampleAt draws (noise, endpoint subset) conditioned on injection
	// and applies the model's fault semantics to the query's values; the
	// returned flip count is always at least 1.
	SampleAt(rng *rand.Rand, op isa.Op, result, prevResult uint32, flag, prevFlag bool) (uint32, bool, int)
}

// Hazard is the first-fault sampling table of one (golden trace, model)
// pair. It is immutable after construction and safe for concurrent use.
// Both fields are exported so internal/core can persist them; treat
// them as read-only.
type Hazard struct {
	// PerOp[op] is the marginal per-query injection probability of op
	// over this model (zero for ops absent from the trace).
	PerOp []float64
	// LogSurv[k] is the log-probability that queries 0..k-1 all stay
	// fault-free: LogSurv[0] = 0, non-increasing, length len(queries)+1.
	// A deterministic injection (hazard 1) drives it to -Inf.
	LogSurv []float64
}

// BuildHazard marginalizes the model once per distinct op in the query
// stream and folds the per-query hazards into the prefix log-survival
// array. The marginalizations — the expensive part, a 2^16-step
// trapezoid integration per op for the DTA-backed models — run
// concurrently, one goroutine per distinct op; the fold stays
// sequential in query order, so the result is bit-identical to the
// fully serial construction (each PerOp value is the same float64
// regardless of which goroutine computed it, and the Kahan summation
// order never changes). Summation is Kahan-compensated so the array
// matches the brute-force product of per-query survival probabilities
// to ~1e-14 even over long traces.
func BuildHazard(m HazardModel, qs []cpu.TraceEvent) *Hazard {
	h := &Hazard{
		PerOp:   make([]float64, isa.NumOps),
		LogSurv: make([]float64, len(qs)+1),
	}
	seen := make([]bool, isa.NumOps)
	var wg sync.WaitGroup
	for i := range qs {
		op := qs[i].Op
		if !seen[op] {
			seen[op] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.PerOp[op] = m.MarginalProb(op) // disjoint index per goroutine
			}()
		}
	}
	wg.Wait()
	sum, comp := 0.0, 0.0
	for i := range qs {
		d := math.Log1p(-h.PerOp[qs[i].Op]) // -Inf at hazard 1
		y := d - comp
		t := sum + y
		if math.IsInf(t, -1) {
			sum, comp = t, 0
		} else {
			comp = (t - sum) - y
			sum = t
		}
		h.LogSurv[i+1] = sum
	}
	return h
}

// Queries reports the query-stream length the hazard was built over.
func (h *Hazard) Queries() int { return len(h.LogSurv) - 1 }

// Survival returns the probability that a whole trial stays fault-free.
func (h *Hazard) Survival() float64 {
	return math.Exp(h.LogSurv[len(h.LogSurv)-1])
}

// SampleIndex draws the first-fault query index by inverting the
// survival function with a single uniform draw and a binary search over
// the prefix array; ok is false when the trial survives the whole trace
// (probability Survival).
func (h *Hazard) SampleIndex(rng *rand.Rand) (int, bool) {
	n := len(h.LogSurv) - 1
	u := 1 - rng.Float64() // (0, 1], so P(u <= s) = s exactly
	lu := math.Log(u)
	if lu <= h.LogSurv[n] {
		return 0, false
	}
	// Smallest i with S_{i+1} < u <= S_i: first fault at query i with
	// probability S_i - S_{i+1} = S_i * h_i.
	return sort.Search(n, func(i int) bool { return h.LogSurv[i+1] < lu }), true
}

// FirstFault decides one trial against the golden query stream in
// O(log n): the first-fault query index comes from the hazard table,
// the corrupted capture at it from the model conditioned on injection.
// ok is false for a fault-free trial (the trial is the golden run). The
// returned Fork plugs into cpu's CPU.ForkFrom or NewForkInjector
// exactly like a ScanTrace fork; qs must be the stream h was built
// over.
func FirstFault(m HazardModel, h *Hazard, rng *rand.Rand, qs []cpu.TraceEvent) (Fork, bool) {
	i, ok := h.SampleIndex(rng)
	if !ok {
		return Fork{}, false
	}
	q := &qs[i]
	out, outFlag, flipped := m.SampleAt(rng, q.Op, q.Result, q.Prev, q.Flag, q.PrevFlag)
	return Fork{Query: i, Out: out, OutFlag: outFlag, Flipped: flipped}, true
}

// BatchFork is one faulting trial of a FirstFaultBatch call: the index
// of its RNG in the batch plus its fork point.
type BatchFork struct {
	Trial int
	Fork  Fork
}

// FirstFaultBatch decides a whole batch of trials against one hazard
// table, one RNG stream per trial. It is bit-identical per trial to
// calling FirstFault(m, h, rngs[i], qs) for each i — each trial's RNG
// is consumed in exactly the same order (one uniform for the index,
// then the SampleAt draws when it faults) — but the N independent
// binary searches collapse into one order-statistics sweep: the uniform
// draws are sorted descending and located against the non-increasing
// log-survival array with a monotonically advancing lower bound, so the
// searches together cost O(N log N + N log(n/N)) instead of N full
// O(log n) probes and touch the array almost sequentially.
//
// Fault-free trials are simply absent from the result (their trial is
// the golden run). The returned forks are sorted by (Query, Trial) —
// the restore order the batched executor wants, with equal fork points
// adjacent so a group shares one checkpoint image.
func FirstFaultBatch(m HazardModel, h *Hazard, rngs []*rand.Rand, qs []cpu.TraceEvent) []BatchFork {
	n := len(h.LogSurv) - 1
	type draw struct {
		trial int
		lu    float64
	}
	draws := make([]draw, 0, len(rngs))
	for ti, rng := range rngs {
		u := 1 - rng.Float64() // same first consumption as SampleIndex
		lu := math.Log(u)
		if lu <= h.LogSurv[n] {
			continue // survives the whole trace
		}
		draws = append(draws, draw{trial: ti, lu: lu})
	}
	sort.Slice(draws, func(i, j int) bool {
		if draws[i].lu != draws[j].lu {
			return draws[i].lu > draws[j].lu
		}
		return draws[i].trial < draws[j].trial
	})

	out := make([]BatchFork, 0, len(draws))
	lo := 0
	for _, d := range draws {
		// Identical to SampleIndex's search: smallest i with
		// S_{i+1} < u. A larger lu can only land at a smaller-or-equal
		// index, so with draws descending the lower bound only advances.
		lu := d.lu
		i := lo + sort.Search(n-lo, func(j int) bool { return h.LogSurv[lo+j+1] < lu })
		lo = i
		q := &qs[i]
		o, of, flipped := m.SampleAt(rngs[d.trial], q.Op, q.Result, q.Prev, q.Flag, q.PrevFlag)
		out = append(out, BatchFork{
			Trial: d.trial,
			Fork:  Fork{Query: i, Out: o, OutFlag: of, Flipped: flipped},
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Fork.Query != out[b].Fork.Query {
			return out[a].Fork.Query < out[b].Fork.Query
		}
		return out[a].Trial < out[b].Trial
	})
	return out
}
