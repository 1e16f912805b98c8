package dta

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/timing"
)

func newSmallCharacterizer() *Characterizer {
	return NewCharacterizer(circuit.New(circuit.DefaultConfig()),
		timing.DefaultVddDelay(), Config{Cycles: 512, Seed: 5})
}

// Characterization must not depend on how many goroutines drive the
// characterizer: the soundness of artifact cache keys (which do not
// mention worker counts) rests on the arrival matrices being a pure
// function of (config, key, voltage). One characterizer is driven
// serially, the other by 16 concurrent goroutines hammering the same
// and different keys; every endpoint CDF must be bit-identical.
func TestCharacterizationDeterministicUnderConcurrency(t *testing.T) {
	keys := []Key{
		{Unit: circuit.UnitAdd, Gen: "u32"},
		{Unit: circuit.UnitAdd, Gen: "u16"},
		{Unit: circuit.UnitMul, Gen: "u32"},
		{Unit: circuit.UnitAnd, Gen: "zimm16"},
	}
	serial := newSmallCharacterizer()
	for _, k := range keys {
		if _, err := serial.At(k, 0.7); err != nil {
			t.Fatal(err)
		}
	}

	parallel := newSmallCharacterizer()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		for _, k := range keys {
			wg.Add(1)
			go func(k Key) {
				defer wg.Done()
				if _, err := parallel.At(k, 0.7); err != nil {
					t.Error(err)
				}
			}(k)
		}
	}
	wg.Wait()

	for _, k := range keys {
		a, _ := serial.At(k, 0.7)
		b, _ := parallel.At(k, 0.7)
		if !reflect.DeepEqual(a.Arrivals, b.Arrivals) {
			t.Errorf("%v: arrival matrix differs between serial and concurrent characterization", k)
		}
		if a.MaxPs != b.MaxPs || a.SetupPs != b.SetupPs {
			t.Errorf("%v: scalars differ: %v/%v vs %v/%v", k, a.MaxPs, a.SetupPs, b.MaxPs, b.SetupPs)
		}
		for e := range a.CDFs {
			if a.CDFs[e].MaxPs() != b.CDFs[e].MaxPs() ||
				a.CDFs[e].ViolationProb(circuit.PeriodPs(1200)) != b.CDFs[e].ViolationProb(circuit.PeriodPs(1200)) {
				t.Errorf("%v endpoint %d: CDF differs", k, e)
			}
		}
	}
}

// A second characterizer over the same store must serve every
// characterization from disk, bit-identical to the computed original.
func TestCharacterizationStoreRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Unit: circuit.UnitMul, Gen: "u16"}

	cold := newSmallCharacterizer()
	cold.SetStore(st)
	chCold, err := cold.At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ComputedCount() != 1 || cold.LoadedCount() != 0 {
		t.Fatalf("cold counters: computed %d, loaded %d", cold.ComputedCount(), cold.LoadedCount())
	}

	warm := newSmallCharacterizer()
	warm.SetStore(st)
	chWarm, err := warm.At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ComputedCount() != 0 || warm.LoadedCount() != 1 {
		t.Fatalf("warm counters: computed %d, loaded %d — store was not consulted", warm.ComputedCount(), warm.LoadedCount())
	}
	if !reflect.DeepEqual(chCold.Arrivals, chWarm.Arrivals) ||
		!reflect.DeepEqual(chCold.MaxPerCycle, chWarm.MaxPerCycle) {
		t.Error("persisted arrival matrix not bit-identical")
	}
	if chCold.SetupPs != chWarm.SetupPs || chCold.MaxPs != chWarm.MaxPs ||
		chCold.Cycles != chWarm.Cycles || chCold.Key != chWarm.Key {
		t.Errorf("persisted scalars drifted: %+v vs %+v", chCold.Key, chWarm.Key)
	}
	for e := range chCold.CDFs {
		for _, f := range []float64{800, 1200, 1600, 2400} {
			p := circuit.PeriodPs(f)
			if chCold.CDFs[e].ViolationProb(p) != chWarm.CDFs[e].ViolationProb(p) {
				t.Fatalf("endpoint %d CDF differs at %v MHz", e, f)
			}
		}
	}
}

// A characterizer with a different configuration must never hit blobs
// written under another one.
func TestStoreKeySeparatesConfigs(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Unit: circuit.UnitAdd, Gen: "u32"}
	a := newSmallCharacterizer()
	a.SetStore(st)
	if _, err := a.At(key, 0.7); err != nil {
		t.Fatal(err)
	}
	b := NewCharacterizer(circuit.New(circuit.DefaultConfig()),
		timing.DefaultVddDelay(), Config{Cycles: 512, Seed: 6}) // different operand seed
	b.SetStore(st)
	if _, err := b.At(key, 0.7); err != nil {
		t.Fatal(err)
	}
	if b.LoadedCount() != 0 {
		t.Error("characterization with a different DTA seed was served from the other config's blob")
	}
}

// A blob that decodes but has the wrong shape for its key — another
// coordinate, another cycle count, a missing endpoint, a short row, a
// MaxPs that is not the maximum of MaxPerCycle — must miss: the
// characterizer recomputes, returns the correct result and overwrites
// the blob with a good one.
func TestMisshapedBlobRecomputes(t *testing.T) {
	key := Key{Unit: circuit.UnitCompare, Gen: "u16"} // flagged: 33 endpoints
	want := newSmallCharacterizer().RunSerial(key, 0.7)
	good := func() charWire {
		w := charWire{
			Unit: int(key.Unit), Gen: key.Gen, Voltage: 0.7, Cycles: want.Cycles,
			MaxPerCycle: append([]float64(nil), want.MaxPerCycle...),
			SetupPs:     want.SetupPs, MaxPs: want.MaxPs,
		}
		for _, row := range want.Arrivals {
			w.Arrivals = append(w.Arrivals, append([]float64(nil), row...))
		}
		return w
	}
	cases := map[string]func(w *charWire){
		"unit":          func(w *charWire) { w.Unit = int(circuit.UnitSub) },
		"gen":           func(w *charWire) { w.Gen = "u32" },
		"voltage":       func(w *charWire) { w.Voltage = 0.8 },
		"cycles":        func(w *charWire) { w.Cycles--; w.MaxPerCycle = w.MaxPerCycle[:w.Cycles] },
		"endpoints":     func(w *charWire) { w.Arrivals = w.Arrivals[:circuit.Width] },
		"short row":     func(w *charWire) { w.Arrivals[7] = w.Arrivals[7][:w.Cycles-1] },
		"short max row": func(w *charWire) { w.MaxPerCycle = w.MaxPerCycle[1:] },
		"max":           func(w *charWire) { w.MaxPs /= 2 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c := newSmallCharacterizer()
			c.SetStore(st)
			w := good()
			mutate(&w)
			payload, err := artifact.EncodeGob(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(artifact.KindCharacterization, c.storeKey(key, 0.7), payload); err != nil {
				t.Fatal(err)
			}
			got, err := c.At(key, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			if c.ComputedCount() != 1 || c.LoadedCount() != 0 {
				t.Fatalf("computed %d, loaded %d: mis-shaped blob was served", c.ComputedCount(), c.LoadedCount())
			}
			if !reflect.DeepEqual(got.Arrivals, want.Arrivals) || !reflect.DeepEqual(got.MaxPerCycle, want.MaxPerCycle) ||
				got.MaxPs != want.MaxPs || got.SetupPs != want.SetupPs {
				t.Fatal("recomputed characterization differs from the reference")
			}
			warm := newSmallCharacterizer()
			warm.SetStore(st)
			if _, err := warm.At(key, 0.7); err != nil {
				t.Fatal(err)
			}
			if warm.LoadedCount() != 1 {
				t.Error("recomputed characterization did not replace the mis-shaped blob")
			}
		})
	}
	// The unmutated blob is a hit.
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newSmallCharacterizer()
	c.SetStore(st)
	payload, err := artifact.EncodeGob(good())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(artifact.KindCharacterization, c.storeKey(key, 0.7), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.At(key, 0.7); err != nil {
		t.Fatal(err)
	}
	if c.LoadedCount() != 1 || c.ComputedCount() != 0 {
		t.Errorf("well-shaped blob missed: computed %d, loaded %d", c.ComputedCount(), c.LoadedCount())
	}
}
