package fi

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/timing"
)

// hazardModels builds one instance of every model kind at an operating
// point inside model C's transition region, for the given semantics and
// (for C) sampling mode.
func hazardModels(t *testing.T, sem Semantics, sampling Sampling) map[string]HazardModel {
	t.Helper()
	alu, ch := fixture()
	mc, err := NewModelC(ch, ModelCConfig{
		Vdd: 0.7, FreqMHz: 860, Sigma: 0.010,
		Sem: sem, Sampling: sampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]HazardModel{
		"A":    &ModelA{Prob: 3e-4, Sem: sem},
		"B":    NewModelB(alu, timing.DefaultVddDelay(), 0.7, 709, 0, sem),
		"B+":   NewModelB(alu, timing.DefaultVddDelay(), 0.7, 700, 0.010, sem),
		"C":    mc,
		"none": NullModel{},
	}
}

// hazardQueries synthesizes a query stream cycling through a mix of ALU
// ops (arithmetic, logic, shift, compare) so every characterization
// table and the flag endpoint participate.
func hazardQueries(n int) []TraceQuery {
	ops := []isa.Op{
		isa.OpAdd, isa.OpMul, isa.OpXor, isa.OpSll,
		isa.OpSfeq, isa.OpAddi, isa.OpSub, isa.OpSfgtu,
	}
	rng := stats.NewRand(17)
	qs := make([]TraceQuery, n)
	for i := range qs {
		qs[i] = TraceQuery{
			Op:     ops[i%len(ops)],
			Result: rng.Uint32(), Prev: rng.Uint32(),
			Flag: rng.Intn(2) == 0, PrevFlag: rng.Intn(2) == 0,
		}
	}
	return qs
}

// TestHazardPrefixMatchesBruteForceProduct is the hazard-math exactness
// property: for every model kind and both semantics, the prefix
// log-survival array must equal the brute-force product of per-query
// (1 - MarginalProb) to 1e-12.
func TestHazardPrefixMatchesBruteForceProduct(t *testing.T) {
	qs := hazardQueries(3000)
	for _, sem := range []Semantics{FlipBit, StaleCapture} {
		for _, sampling := range []Sampling{Independent, Joint} {
			for name, m := range hazardModels(t, sem, sampling) {
				h := BuildHazard(m, qs)
				if h.Queries() != len(qs) {
					t.Fatalf("%s: hazard over %d queries, want %d", name, h.Queries(), len(qs))
				}
				if h.LogSurv[0] != 0 {
					t.Errorf("%s: LogSurv[0] = %v, want 0", name, h.LogSurv[0])
				}
				prod := 1.0
				for i, q := range qs {
					p := m.MarginalProb(q.Op)
					if p != h.PerOp[q.Op] {
						t.Fatalf("%s/%v: PerOp[%v] = %v, MarginalProb = %v",
							name, sem, q.Op, h.PerOp[q.Op], p)
					}
					prod *= 1 - p
					got := math.Exp(h.LogSurv[i+1])
					if math.Abs(got-prod) > 1e-12 {
						t.Fatalf("%s/%v/%v: survival after %d queries %v, brute-force product %v",
							name, sem, sampling, i+1, got, prod)
					}
				}
			}
		}
	}
}

// TestMarginalProbMatchesInjectFrequency pins the marginalization
// against the ground truth: the empirical injection frequency of the
// per-cycle Inject path. Fixed seeds keep the check deterministic; the
// tolerance is five binomial sigmas plus the documented integration
// error.
func TestMarginalProbMatchesInjectFrequency(t *testing.T) {
	const trials = 300_000
	ops := []isa.Op{isa.OpAdd, isa.OpMul, isa.OpSfeq}
	for _, sampling := range []Sampling{Independent, Joint} {
		for name, m := range hazardModels(t, FlipBit, sampling) {
			inj := m.NewTrial(stats.NewTrial(23))
			for _, op := range ops {
				p := m.MarginalProb(op)
				if p < 0 || p > 1 {
					t.Fatalf("%s: MarginalProb(%v) = %v", name, op, p)
				}
				hits := 0
				for i := 0; i < trials; i++ {
					if _, _, flips := inj.Inject(op, 0xdeadbeef, 0x01234567, true, false); flips > 0 {
						hits++
					}
				}
				got := float64(hits) / trials
				tol := 5*math.Sqrt(math.Max(p*(1-p), 1e-9)/trials) + 2e-5
				if math.Abs(got-p) > tol {
					t.Errorf("%s/%v op %v: empirical injection rate %v, marginal %v (tol %v)",
						name, sampling, op, got, p, tol)
				}
			}
		}
	}
}

// TestSampleAtAlwaysFlips pins SampleAt's contract: conditioned on
// injection, every draw flips at least one countable endpoint, and its
// mean flip count agrees with Inject's conditional mean (same law).
func TestSampleAtAlwaysFlips(t *testing.T) {
	const draws = 50_000
	ops := []isa.Op{isa.OpAdd, isa.OpMul, isa.OpSfeq}
	for _, sem := range []Semantics{FlipBit, StaleCapture} {
		for _, sampling := range []Sampling{Independent, Joint} {
			for name, m := range hazardModels(t, sem, sampling) {
				for _, op := range ops {
					if m.MarginalProb(op) == 0 {
						continue // SampleAt is unreachable for this op
					}
					rng := stats.NewRand(31)
					var sampleFlips float64
					for i := 0; i < draws; i++ {
						_, _, flips := m.SampleAt(rng, op, 0xdeadbeef, 0x01234567, true, false)
						if flips < 1 {
							t.Fatalf("%s/%v/%v op %v: SampleAt flipped %d endpoints",
								name, sem, sampling, op, flips)
						}
						sampleFlips += float64(flips)
					}
					sampleFlips /= draws
					// Conditional mean of the per-cycle reference path.
					inj := m.NewTrial(stats.NewTrial(37))
					var injFlips float64
					injHits := 0
					for i := 0; i < 600_000 && injHits < draws; i++ {
						if _, _, flips := inj.Inject(op, 0xdeadbeef, 0x01234567, true, false); flips > 0 {
							injFlips += float64(flips)
							injHits++
						}
					}
					if injHits < 1000 {
						continue // too rare to compare means meaningfully
					}
					injFlips /= float64(injHits)
					if diff := math.Abs(sampleFlips - injFlips); diff > 0.12*math.Max(injFlips, 1) {
						t.Errorf("%s/%v/%v op %v: conditional mean flips %v (SampleAt) vs %v (Inject, n=%d)",
							name, sem, sampling, op, sampleFlips, injFlips, injHits)
					}
				}
			}
		}
	}
}

// TestSampleIndexDistribution pins the inversion sampler against the
// analytic first-fault law on a synthetic hazard model: the fault-free
// fraction must match Survival and the empirical first-fault index
// frequencies their exact probabilities.
func TestSampleIndexDistribution(t *testing.T) {
	qs := hazardQueries(64)
	m := &ModelA{Prob: 4e-4, Sem: FlipBit} // per-query hazard ~1.3%
	h := BuildHazard(m, qs)
	const trials = 400_000
	rng := stats.NewRand(41)
	counts := make([]int, len(qs))
	free := 0
	for i := 0; i < trials; i++ {
		idx, ok := h.SampleIndex(rng)
		if !ok {
			free++
			continue
		}
		counts[idx]++
	}
	s := h.Survival()
	if got := float64(free) / trials; math.Abs(got-s) > 5*math.Sqrt(s*(1-s)/trials) {
		t.Errorf("fault-free fraction %v, survival %v", got, s)
	}
	for i := range qs {
		exact := math.Exp(h.LogSurv[i]) - math.Exp(h.LogSurv[i+1])
		got := float64(counts[i]) / trials
		if math.Abs(got-exact) > 5*math.Sqrt(exact*(1-exact)/trials)+1e-6 {
			t.Errorf("P(first fault at %d) = %v, want %v", i, got, exact)
		}
	}
}

// TestHazardDeterministicInjection pins the hazard-1 edge: model B
// above its STA limit injects on every query, so the log-survival hits
// -Inf and every sampled trial faults at query 0.
func TestHazardDeterministicInjection(t *testing.T) {
	alu, _ := fixture()
	m := NewModelB(alu, timing.DefaultVddDelay(), 0.7, 740, 0, FlipBit)
	if p := m.MarginalProb(isa.OpAdd); p != 1 {
		t.Fatalf("model B far above STA: MarginalProb = %v, want 1", p)
	}
	qs := hazardQueries(16)
	h := BuildHazard(m, qs)
	if !math.IsInf(h.LogSurv[len(h.LogSurv)-1], -1) || h.Survival() != 0 {
		t.Errorf("survival = %v, want 0", h.Survival())
	}
	rng := stats.NewRand(43)
	for i := 0; i < 1000; i++ {
		idx, ok := h.SampleIndex(rng)
		if !ok || idx != 0 {
			t.Fatalf("deterministic injection sampled (%d, %v), want (0, true)", idx, ok)
		}
	}
	fork, ok := FirstFault(m, h, rng, qs)
	if !ok || fork.Query != 0 || fork.Flipped < 1 {
		t.Errorf("FirstFault = %+v, %v", fork, ok)
	}
}

// TestModelCRejectionLoopBounded is the regression for the bounded
// rejection loop: a degenerate grid whose pNone promises injection
// while every active probability is vanishingly small must still
// terminate (via the retry-budget fallback) and flip the
// highest-probability endpoint (the first one on ties), after consuming
// exactly the pNone uniform and rejectBudget full rows of draws.
func TestModelCRejectionLoopBounded(t *testing.T) {
	const n = 4002
	g := &dta.ViolationGrid{
		StepPs: 1,
		MaxPs:  4000,
		Active: []int{3, 5, 7},
		PNone:  make([]float64, n), // pNone = 0 claims certain injection
		Rows:   make([]float64, 3*n),
	}
	for i := 0; i < n; i++ {
		// ...which the per-endpoint draws can essentially never realize.
		copy(g.Rows[3*i:], []float64{1e-300, 2e-300, 2e-300})
	}
	m := &ModelC{
		sem:      FlipBit,
		sampling: Independent,
		periodPs: circuit.PeriodPs(700),
		noise:    newNoiseScale(timing.DefaultVddDelay(), 0.7, timing.NewNoise(0)),
	}
	m.tables[isa.OpAdd] = &opTable{g: g, dvSafe: math.Inf(1)}
	m.filled[isa.OpAdd].Store(true) // hand-filled: the accessor must not characterize
	rng := stats.NewTrial(47)
	out, _, flips := m.NewTrial(rng).Inject(isa.OpAdd, 0xffffffff, 0, false, false)
	if flips != 1 {
		t.Fatalf("degenerate table flipped %d endpoints, want the forced fallback (1)", flips)
	}
	if out != 0xffffffff^(1<<5) {
		t.Errorf("fallback did not force the highest-probability endpoint: out %08x", out)
	}
	ref := stats.NewTrialRand(47)
	for i := 0; i < 1+rejectBudget*len(g.Active); i++ {
		ref.Float64()
	}
	for k := 0; k < 4; k++ {
		if a, b := rng.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("stream after the budget path is off by draw %d: %#x vs %#x", k, a, b)
		}
	}
}

// TestFirstFaultBatchBitIdentical is the batched drawer's contract: for
// every model kind and both semantics, FirstFaultBatch must reproduce
// per-trial FirstFault exactly — same clean/faulting split, same forks,
// and the same RNG stream position afterwards (pinned by comparing the
// next draws of both streams).
func TestFirstFaultBatchBitIdentical(t *testing.T) {
	const master, trials = 911, 400
	qs := hazardQueries(3000)
	for _, sem := range []Semantics{FlipBit, StaleCapture} {
		for name, m := range hazardModels(t, sem, Independent) {
			h := BuildHazard(m, qs)

			// Reference: independent per-trial calls.
			type ref struct {
				fork Fork
				ok   bool
				next [3]uint64
			}
			refs := make([]ref, trials)
			for ti := range refs {
				rng := stats.NewTrialRand(stats.SubSeed(master, ti))
				f, ok := FirstFault(m, h, rng, qs)
				refs[ti] = ref{fork: f, ok: ok}
				for j := range refs[ti].next {
					refs[ti].next[j] = rng.Uint64()
				}
			}

			// Batched over fresh streams with the same keying.
			rngs := make([]*rand.Rand, trials)
			for ti := range rngs {
				rngs[ti] = stats.NewTrialRand(stats.SubSeed(master, ti))
			}
			batch := FirstFaultBatch(m, h, rngs, qs)

			got := make(map[int]Fork, len(batch))
			for i, bf := range batch {
				if i > 0 {
					prev := batch[i-1]
					if bf.Fork.Query < prev.Fork.Query ||
						(bf.Fork.Query == prev.Fork.Query && bf.Trial <= prev.Trial) {
						t.Fatalf("%s/%v: batch not sorted by (query, trial) at %d", name, sem, i)
					}
				}
				got[bf.Trial] = bf.Fork
			}
			for ti, r := range refs {
				bf, faulted := got[ti]
				if faulted != r.ok {
					t.Fatalf("%s/%v trial %d: batch faulted=%v, per-trial %v", name, sem, ti, faulted, r.ok)
				}
				if faulted && bf != r.fork {
					t.Fatalf("%s/%v trial %d: fork %+v, per-trial %+v", name, sem, ti, bf, r.fork)
				}
				for j := 0; j < len(r.next); j++ {
					if v := rngs[ti].Uint64(); v != r.next[j] {
						t.Fatalf("%s/%v trial %d: RNG stream diverged at post-draw %d", name, sem, ti, j)
					}
				}
			}
			if name == "A" && sem == FlipBit && len(batch) == 0 {
				t.Fatalf("batch produced no faulting trials — fixture too weak to test anything")
			}
		}
	}
}

// TestBuildHazardConcurrentBitIdentical pins the parallel marginal
// fan-out inside BuildHazard: concurrent constructions over one model
// must produce bit-identical tables (each PerOp value is the same
// float64 whichever goroutine computes it, and the sequential Kahan
// fold never reorders), and the construction itself must be race-free
// under the detector.
func TestBuildHazardConcurrentBitIdentical(t *testing.T) {
	qs := hazardQueries(3000)
	for name, m := range hazardModels(t, FlipBit, Independent) {
		const n = 4
		tables := make([]*Hazard, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tables[i] = BuildHazard(m, qs)
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			for op, p := range tables[i].PerOp {
				if p != tables[0].PerOp[op] {
					t.Fatalf("%s: build %d PerOp[%d] = %v, build 0 = %v", name, i, op, p, tables[0].PerOp[op])
				}
			}
			for k, v := range tables[i].LogSurv {
				if v != tables[0].LogSurv[k] {
					t.Fatalf("%s: build %d LogSurv[%d] = %v, build 0 = %v", name, i, k, v, tables[0].LogSurv[k])
				}
			}
		}
	}
}
