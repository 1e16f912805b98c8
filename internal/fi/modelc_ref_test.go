package fi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/timing"
)

// refOpTable is the reference model-C table layout: one column-major
// probability array per endpoint over the effective-period grid, built
// per model from the characterization's CDFs.
type refOpTable struct {
	ch     *dta.Characterization
	nEP    int
	maxPs  float64
	stepPs float64
	pNone  []float64
	pBit   [][]float64 // [endpoint][grid index]
	active []int
}

func newRefOpTable(c *dta.Characterization) *refOpTable {
	t := &refOpTable{ch: c, nEP: c.NumEndpoints(), maxPs: c.MaxPs + c.SetupPs, stepPs: 1}
	n := int(math.Ceil(t.maxPs/t.stepPs)) + 2
	t.pNone = make([]float64, n)
	t.pBit = make([][]float64, t.nEP)
	anyProb := make([]bool, t.nEP)
	for e := range t.pBit {
		t.pBit[e] = make([]float64, n)
	}
	cdfs := make([]*timing.CDF, t.nEP)
	for e := range cdfs {
		cdfs[e] = c.CDF(e)
	}
	for i := 0; i < n; i++ {
		pN := 1.0
		for e := 0; e < t.nEP; e++ {
			p := cdfs[e].ViolationProb(float64(i) * t.stepPs)
			t.pBit[e][i] = p
			pN *= 1 - p
			if p > 0 {
				anyProb[e] = true
			}
		}
		t.pNone[i] = pN
	}
	for e, a := range anyProb {
		if a {
			t.active = append(t.active, e)
		}
	}
	return t
}

// refModelC is the reference model C: the per-cycle injector as a
// per-endpoint loop over refOpTable, drawing every uniform through
// *rand.Rand.
type refModelC struct {
	sem      Semantics
	sampling Sampling
	periodPs float64
	noise    *noiseScale
	tables   [isa.NumOps]*refOpTable
}

func newRefModelC(ch *dta.Characterizer, cfg ModelCConfig) (*refModelC, error) {
	m := &refModelC{
		sem:      cfg.Sem,
		sampling: cfg.Sampling,
		periodPs: circuit.PeriodPs(cfg.FreqMHz),
		noise:    newNoiseScale(ch.Model, cfg.Vdd, timing.NewNoise(cfg.Sigma)),
	}
	built := map[dta.Key]*refOpTable{}
	for _, op := range isa.AllOps() {
		if !isa.IsALU(op) {
			continue
		}
		key := dta.KeyFor(op, cfg.Profile)
		t, ok := built[key]
		if !ok {
			c, err := ch.At(key, cfg.Vdd)
			if err != nil {
				return nil, err
			}
			t = newRefOpTable(c)
			built[key] = t
		}
		m.tables[op] = t
	}
	return m, nil
}

func (m *refModelC) inject(rng *rand.Rand, op isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	t := m.tables[op]
	if t == nil {
		return result, flag, 0
	}
	eff := m.periodPs / m.noise.sample(rng)
	if eff >= t.maxPs {
		return result, flag, 0
	}
	var viol uint32
	var flagViol bool
	set := func(e int) {
		if e == circuit.FlagEndpoint {
			flagViol = true
		} else {
			viol |= 1 << uint(e)
		}
	}
	switch m.sampling {
	case Independent:
		idx := int(eff / t.stepPs)
		if rng.Float64() < t.pNone[idx] {
			return result, flag, 0
		}
		for round := 0; viol == 0 && !flagViol; round++ {
			if round == rejectBudget {
				best := t.active[0]
				for _, e := range t.active {
					if t.pBit[e][idx] > t.pBit[best][idx] {
						best = e
					}
				}
				set(best)
				break
			}
			for _, e := range t.active {
				if rng.Float64() < t.pBit[e][idx] {
					set(e)
				}
			}
		}
	case Joint:
		j := rng.Intn(t.ch.Cycles)
		if t.ch.MaxPerCycle[j]+t.ch.SetupPs <= eff {
			return result, flag, 0
		}
		for e := 0; e < t.nEP; e++ {
			if t.ch.Arrivals[e][j]+t.ch.SetupPs > eff {
				set(e)
			}
		}
	}
	if !isa.IsCompare(op) {
		flagViol = false
	}
	return apply(m.sem, rng, viol, flagViol, result, prev, flag, prevFlag)
}

// aluOps lists every op model C holds a table for.
func aluOps() []isa.Op {
	var ops []isa.Op
	for _, op := range isa.AllOps() {
		if isa.IsALU(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestModelCInjectMatchesReference pins the shared-grid injector, its
// row kernel and its fast reject to the reference per-endpoint loop:
// over every ALU op, both semantics, both sampling modes, sigma 0 and
// 10 mV, 700-900 MHz and 50 trial streams, every query must return the
// same (out, flag, flipped), and each stream must end the trial at the
// same position (the next four draws agree).
func TestModelCInjectMatchesReference(t *testing.T) {
	_, ch := fixture()
	ops := aluOps()
	operands := stats.NewRand(61)
	var queries, injections, flagDraws int
	for _, sampling := range []Sampling{Independent, Joint} {
		for _, sem := range []Semantics{FlipBit, StaleCapture} {
			for _, sigma := range []float64{0, 0.010} {
				for f := 700.0; f <= 900; f += 25 {
					cfg := ModelCConfig{Vdd: 0.7, FreqMHz: f, Sigma: sigma, Sem: sem, Sampling: sampling}
					cur, err := NewModelC(ch, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newRefModelC(ch, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for seed := 0; seed < 50; seed++ {
						s := stats.SubSeed(int64(f*1000+sigma*1e6), seed)
						curRNG, refRNG := stats.NewTrial(s), stats.NewTrialRand(s)
						inj := cur.NewTrial(curRNG)
						for rep := 0; rep < 4; rep++ {
							for _, op := range ops {
								r, p := operands.Uint32(), operands.Uint32()
								fl, pf := operands.Intn(2) == 0, operands.Intn(2) == 0
								o1, f1, n1 := inj.Inject(op, r, p, fl, pf)
								o2, f2, n2 := ref.inject(refRNG, op, r, p, fl, pf)
								if o1 != o2 || f1 != f2 || n1 != n2 {
									t.Fatalf("%v/%v sigma %v %v MHz seed %d op %v: got (%#x, %v, %d), reference (%#x, %v, %d)",
										sampling, sem, sigma, f, seed, op, o1, f1, n1, o2, f2, n2)
								}
								queries++
								if n1 > 0 {
									injections++
									if sem == FlipBit && isa.IsCompare(op) {
										flagDraws++
									}
								}
							}
						}
						for k := 0; k < 4; k++ {
							if a, b := curRNG.Uint64(), refRNG.Uint64(); a != b {
								t.Fatalf("%v/%v sigma %v %v MHz seed %d: stream diverged at post-draw %d",
									sampling, sem, sigma, f, seed, k)
							}
						}
					}
				}
			}
		}
	}
	if injections < 1000 || flagDraws == 0 {
		t.Fatalf("sweep too clean to pin anything: %d injections (%d on FlipBit compares) in %d queries",
			injections, flagDraws, queries)
	}
}

// TestModelCFastRejectIsSafe sweeps the noise offset over the whole
// clip range (and past it, where sampling saturates) for every table of
// models across noise levels and frequencies: wherever the fast reject
// fires (dv >= dvSafe) the exact path must also reject, i.e.
// periodPs/at(dv) >= MaxPs. It also pins that dvSafe sits within two
// table nodes of the exact crossing, so the fast path does real work.
func TestModelCFastRejectIsSafe(t *testing.T) {
	_, ch := fixture()
	fired, checked := 0, 0
	for _, sigma := range []float64{0.010, 0.025} {
		for f := 600.0; f <= 1000; f += 50 {
			m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: f, Sigma: sigma})
			if err != nil {
				t.Fatal(err)
			}
			ns := m.noise
			lim := ns.clip * ns.sigma
			node := 2 * lim / float64(len(ns.table)-1)
			seen := map[*opTable]bool{}
			for _, op := range aluOps() {
				tbl := m.table(op)
				if seen[tbl] {
					continue
				}
				seen[tbl] = true
				dvs := []float64{
					-lim, lim, math.Nextafter(lim, 0), math.Nextafter(-lim, 0),
					tbl.dvSafe, math.Nextafter(tbl.dvSafe, math.Inf(-1)), math.Nextafter(tbl.dvSafe, math.Inf(1)),
				}
				for i := 0; i < len(ns.table); i++ {
					dv := -lim + float64(i)*node
					dvs = append(dvs, dv, math.Nextafter(dv, math.Inf(-1)), math.Nextafter(dv, math.Inf(1)))
				}
				for i := 0; i <= 40000; i++ {
					dvs = append(dvs, -1.25*lim+2.5*lim*float64(i)/40000)
				}
				for _, dv := range dvs {
					if math.IsInf(dv, 0) || math.IsNaN(dv) {
						continue
					}
					checked++
					rejects := m.periodPs/ns.at(dv) >= tbl.g.MaxPs
					if dv >= tbl.dvSafe {
						fired++
						if !rejects {
							t.Fatalf("sigma %v %v MHz: fast reject at dv %v (dvSafe %v) but the exact path draws (eff %v < MaxPs %v)",
								sigma, f, dv, tbl.dvSafe, m.periodPs/ns.at(dv), tbl.g.MaxPs)
						}
					} else if rejects && dv >= -lim && dv < tbl.dvSafe-2*node {
						t.Fatalf("sigma %v %v MHz: exact path rejects at dv %v, far below dvSafe %v",
							sigma, f, dv, tbl.dvSafe)
					}
				}
			}
		}
	}
	if fired == 0 || fired == checked {
		t.Fatalf("sweep never separated the paths: %d of %d offsets fast-rejected", fired, checked)
	}
}

// TestModelCSharesGrids pins grid ownership: model-C instances at one
// voltage share one violation grid per characterization, whatever their
// frequency, noise, semantics or sampling.
func TestModelCSharesGrids(t *testing.T) {
	_, ch := fixture()
	a, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 760, Sigma: 0.010})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 880, Sem: StaleCapture, Sampling: Joint})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range aluOps() {
		g, err := ch.GridAt(dta.KeyFor(op, nil), 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if a.table(op).g != g || b.table(op).g != g {
			t.Fatalf("op %v: models hold private grids", op)
		}
	}
}
