package fi

import (
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/stats"
	"repro/internal/timing"
)

// privateCharacterizer returns a characterizer of the fixture ALU that
// no other test shares, so its counters see only the caller's queries.
func privateCharacterizer() *dta.Characterizer {
	alu, _ := fixture()
	return dta.NewCharacterizer(alu, timing.DefaultVddDelay(), dta.Config{Cycles: 256, Seed: 5})
}

// TestModelCCharacterizesOnFirstQuery pins the lazy tables: a fresh
// model characterizes nothing, and each op's first query characterizes
// its key once, however many ops share that key.
func TestModelCCharacterizesOnFirstQuery(t *testing.T) {
	ch := privateCharacterizer()
	m, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 900, Sigma: 0.010})
	if err != nil {
		t.Fatal(err)
	}
	if n := ch.ComputedCount(); n != 0 {
		t.Fatalf("NewModelC characterized %d keys, want 0", n)
	}
	keys := map[dta.Key]bool{}
	for _, op := range aluOps() {
		m.MarginalProb(op)
		keys[dta.KeyFor(op, nil)] = true
		if n := ch.ComputedCount(); n != int64(len(keys)) {
			t.Fatalf("after %v: %d characterizations, want %d (one per distinct key)", op, n, len(keys))
		}
	}
	if len(keys) == len(aluOps()) {
		t.Fatal("no two ALU ops share a key — fixture cannot pin table sharing")
	}
}

// TestModelCRejectsUnknownGenerator: with no characterization up front,
// a profile naming an unknown generator must still fail construction.
func TestModelCRejectsUnknownGenerator(t *testing.T) {
	ch := privateCharacterizer()
	_, err := NewModelC(ch, ModelCConfig{Vdd: 0.7, FreqMHz: 900, Profile: dta.Profile{circuit.UnitMul: "u7"}})
	if err == nil {
		t.Fatal("NewModelC accepted a profile with an unknown generator")
	}
	if n := ch.ComputedCount(); n != 0 {
		t.Errorf("rejected model characterized %d keys", n)
	}
}

// TestModelCConcurrentFirstQueries races the first Inject, MarginalProb
// and SampleAt calls of every op on one fresh model: each key must be
// characterized exactly once, every op sharing a key must see one
// table, and the answers must match a model built after the race.
func TestModelCConcurrentFirstQueries(t *testing.T) {
	// SampleAt requires a positive hazard, so run above every op's
	// onset (measured on the shared fixture, not the raced one).
	_, shared := fixture()
	fMHz := 0.0
	for _, op := range aluOps() {
		c, err := shared.ForOp(op, nil, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		fMHz = max(fMHz, 1.1*c.OnsetMHz())
	}
	for _, sampling := range []Sampling{Independent, Joint} {
		ch := privateCharacterizer()
		cfg := ModelCConfig{Vdd: 0.7, FreqMHz: fMHz, Sigma: 0.010, Sampling: sampling}
		m, err := NewModelC(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := aluOps()
		const workers = 12
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := stats.NewTrial(int64(w))
				inj := m.NewTrial(rng)
				for i := range ops {
					op := ops[(i+w)%len(ops)]
					switch w % 3 {
					case 0:
						inj.Inject(op, 0x5a5a5a5a, 0, false, false)
					case 1:
						m.MarginalProb(op)
					case 2:
						m.SampleAt(rng.Rand, op, 0x5a5a5a5a, 0, false, false)
					}
				}
			}()
		}
		wg.Wait()

		keys := map[dta.Key]*opTable{}
		for _, op := range ops {
			k := dta.KeyFor(op, nil)
			if tb, ok := keys[k]; ok && tb != m.table(op) {
				t.Fatalf("%v: ops of key %v hold different tables", sampling, k)
			}
			keys[k] = m.table(op)
		}
		if n := ch.ComputedCount(); n != int64(len(keys)) {
			t.Fatalf("%v: %d characterizations for %d keys", sampling, n, len(keys))
		}
		ref, err := NewModelC(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			a, b := m.MarginalProb(op), ref.MarginalProb(op)
			if a != b {
				t.Fatalf("%v %v: raced model's marginal %v, fresh model's %v", sampling, op, a, b)
			}
			if a == 0 {
				t.Fatalf("%v %v: zero hazard at %.0f MHz — SampleAt was called out of contract", sampling, op, fMHz)
			}
		}
	}
}
