package dta

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/isa"
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
		for e := range a.Arrivals {
			ac, bc := a.CDF(e), b.CDF(e)
			if ac.MaxPs() != bc.MaxPs() ||
				ac.ViolationProb(circuit.PeriodPs(1200)) != bc.ViolationProb(circuit.PeriodPs(1200)) {
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
	for e := range chCold.Arrivals {
		coldCDF, warmCDF := chCold.CDF(e), chWarm.CDF(e)
		for _, f := range []float64{800, 1200, 1600, 2400} {
			p := circuit.PeriodPs(f)
			if coldCDF.ViolationProb(p) != warmCDF.ViolationProb(p) {
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

// A payload that does not decode to a characterization of its key's
// shape — another coordinate, another cycle count, a missing endpoint,
// a short row, a MaxPs that is not the maximum of MaxPerCycle, trailing
// or missing bytes, a wrong endpoint count field, a foreign magic —
// must miss: the characterizer recomputes, returns the correct result
// and overwrites the blob with a good one.
func TestMisshapedBlobRecomputes(t *testing.T) {
	key := Key{Unit: circuit.UnitCompare, Gen: "u16"} // flagged: 33 endpoints
	want := newSmallCharacterizer().RunSerial(key, 0.7)
	// good returns a fresh copy of the reference, so mutations do not
	// leak between cases.
	good := func() *Characterization {
		ch, _ := newCharacterization(key, 0.7, want.Cycles, len(want.Arrivals))
		for e, row := range want.Arrivals {
			copy(ch.Arrivals[e], row)
		}
		copy(ch.MaxPerCycle, want.MaxPerCycle)
		ch.SetupPs, ch.MaxPs = want.SetupPs, want.MaxPs
		return ch
	}
	// headerLen is the byte length of an encoded header of key.
	headerLen := len(charMagic) + 16 + len(key.Gen) + 24
	shapes := map[string]func(ch *Characterization){
		"unit":    func(ch *Characterization) { ch.Key.Unit = circuit.UnitSub },
		"gen":     func(ch *Characterization) { ch.Key.Gen = "u32" },
		"voltage": func(ch *Characterization) { ch.Voltage = 0.8 },
		"cycles": func(ch *Characterization) {
			ch.Cycles--
			for e := range ch.Arrivals {
				ch.Arrivals[e] = ch.Arrivals[e][:ch.Cycles]
			}
			ch.MaxPerCycle = ch.MaxPerCycle[:ch.Cycles]
		},
		"endpoints":     func(ch *Characterization) { ch.Arrivals = ch.Arrivals[:circuit.Width] },
		"short row":     func(ch *Characterization) { ch.Arrivals[7] = ch.Arrivals[7][:ch.Cycles-1] },
		"short max row": func(ch *Characterization) { ch.MaxPerCycle = ch.MaxPerCycle[1:] },
		"max":           func(ch *Characterization) { ch.MaxPs /= 2 },
	}
	bytesCases := map[string]func(b []byte) []byte{
		"trailing bytes":   func(b []byte) []byte { return append(b, make([]byte, 8)...) },
		"odd length":       func(b []byte) []byte { return b[:len(b)-3] },
		"header only":      func(b []byte) []byte { return b[:headerLen] },
		"truncated header": func(b []byte) []byte { return b[:headerLen-1] },
		"endpoint field": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerLen-28:], circuit.Width)
			return b
		},
		"too many endpoints": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerLen-28:], circuit.NumEndpoints+1)
			return b
		},
		"magic": func(b []byte) []byte { b[0] ^= 1; return b },
	}
	for name, mutate := range shapes {
		bytesCases[name] = func([]byte) []byte {
			ch := good()
			mutate(ch)
			return encodeCharacterization(ch)
		}
	}
	for name, payload := range bytesCases {
		t.Run(name, func(t *testing.T) {
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c := newSmallCharacterizer()
			c.SetStore(st)
			if err := st.Put(artifact.KindCharacterization, c.storeKey(key, 0.7), payload(encodeCharacterization(good()))); err != nil {
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
	if err := st.Put(artifact.KindCharacterization, c.storeKey(key, 0.7), encodeCharacterization(good())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.At(key, 0.7); err != nil {
		t.Fatal(err)
	}
	if c.LoadedCount() != 1 || c.ComputedCount() != 0 {
		t.Errorf("well-shaped blob missed: computed %d, loaded %d", c.ComputedCount(), c.LoadedCount())
	}
}

// sameCharacterization reports whether two characterizations agree bit
// for bit in every persisted field.
func sameCharacterization(a, b *Characterization) bool {
	return reflect.DeepEqual(encodeCharacterization(a), encodeCharacterization(b))
}

// TestCorruptCharacterizationBlobNeverServed flips a spread of bytes
// across a stored characterization blob — every envelope and payload
// header byte, the checksum, and rows throughout the payload — and
// asserts that every flip misses, so no load ever serves a
// characterization other than the stored one.
func TestCorruptCharacterizationBlobNeverServed(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Unit: circuit.UnitMul, Gen: "u8"}
	cold := newSmallCharacterizer()
	cold.SetStore(st)
	want, err := cold.At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(st.Dir(), artifact.KindCharacterization+"-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("blobs %v, %v", files, err)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int
	for i := 0; i < 512 && i < len(good); i++ {
		offsets = append(offsets, i)
	}
	for i := 512; i < len(good); i += 997 {
		offsets = append(offsets, i)
	}
	offsets = append(offsets, len(good)-1)
	c := newSmallCharacterizer()
	c.SetStore(st)
	for _, i := range offsets {
		bad := bytes.Clone(good)
		bad[i] ^= 0x10
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if ch, ok := c.cache.Load(c.storeKey(key, 0.7), c.decoder(key, 0.7)); ok {
			t.Fatalf("byte %d flipped: corrupt blob was a hit (same characterization: %v)", i, sameCharacterization(ch, want))
		}
	}
	if err := os.WriteFile(files[0], good, 0o644); err != nil {
		t.Fatal(err)
	}
	if ch, ok := c.cache.Load(c.storeKey(key, 0.7), c.decoder(key, 0.7)); !ok || !sameCharacterization(ch, want) {
		t.Fatal("restored blob does not load")
	}
}

// FuzzDecodeCharacterization feeds arbitrary payloads to the decoder. It
// must never panic; whatever it accepts has one Cycles-long row per
// endpoint (at most circuit.NumEndpoints) and a Cycles-long
// MaxPerCycle, and re-encodes to the same bytes.
func FuzzDecodeCharacterization(f *testing.F) {
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), Config{Cycles: 4, Seed: 5})
	for _, k := range []Key{{Unit: circuit.UnitAdd, Gen: "u32"}, {Unit: circuit.UnitCompare, Gen: "s16"}} {
		blob := encodeCharacterization(c.RunSerial(k, 0.7))
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
	}
	f.Add([]byte(charMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ch, err := decodeCharacterization(b)
		if err != nil {
			return
		}
		if len(ch.Arrivals) > circuit.NumEndpoints || len(ch.MaxPerCycle) != ch.Cycles {
			t.Fatalf("accepted %d endpoints, MaxPerCycle %d for %d cycles", len(ch.Arrivals), len(ch.MaxPerCycle), ch.Cycles)
		}
		for e, row := range ch.Arrivals {
			if len(row) != ch.Cycles {
				t.Fatalf("row %d has %d of %d cycles", e, len(row), ch.Cycles)
			}
		}
		if again := encodeCharacterization(ch); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding drifted:\n %x\n %x", again, b)
		}
	})
}

// The characterization key is the address every stored characterization
// lives under, so its spelling is part of the store's format: a change
// to it, or to how the configs it prints render, turns every warm cache
// cold. This pins it for the default configs.
func TestCharacterizationKeySpelling(t *testing.T) {
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), DefaultConfig())
	const want = "circuit={Seed:28 STAFreqMHz:707 SetupPs:30 AdderGroup:8 Tightness:map[]}" +
		"|vdd={Vt:0.3 Alpha:1.35}|dta={Cycles:8192 Seed:1}|unit=3|gen=u16|mV=700"
	if got := c.storeKey(Key{Unit: circuit.UnitMul, Gen: "u16"}, 0.7); got != want {
		t.Errorf("characterization key spelling changed:\n got %s\nwant %s", got, want)
	}
}

// The violation-grid key is the characterization's key plus the grid
// step; its spelling is part of the store's format like the
// characterization key's. This pins it for the default configs.
func TestViolationGridKeySpelling(t *testing.T) {
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), DefaultConfig())
	const want = "circuit={Seed:28 STAFreqMHz:707 SetupPs:30 AdderGroup:8 Tightness:map[]}" +
		"|vdd={Vt:0.3 Alpha:1.35}|dta={Cycles:8192 Seed:1}|unit=3|gen=u16|mV=700|stepPs=1"
	if got := c.gridStoreKey(Key{Unit: circuit.UnitMul, Gen: "u16"}, 0.7); got != want {
		t.Errorf("violation-grid key spelling changed:\n got %s\nwant %s", got, want)
	}
}

// A characterization is a function of the supply rounded to the
// millivolt: a characterizer that first served a sub-millivolt neighbour
// must answer a supply exactly as a fresh one does.
func TestSubMillivoltSupplyDoesNotAlias(t *testing.T) {
	key := Key{Unit: circuit.UnitAdd, Gen: "u32"}
	c := newSmallCharacterizer()
	if _, err := c.At(key, 0.7004); err != nil {
		t.Fatal(err)
	}
	got, err := c.At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newSmallCharacterizer().At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("At(0.7) after At(0.7004) differs from a fresh At(0.7): MaxPs %v vs %v", got.MaxPs, want.MaxPs)
	}
}

// TestViolationGridStoreRoundTrip: for every DTA key of the default
// ALU, the decoded grid is deep-equal to the counted one, and a second
// characterizer over the store serves it without reading, let alone
// simulating, the characterization. The cycle count is odd, so no
// probability is an exact binary fraction and the encoder's recovery
// of each count by rounding is exercised.
func TestViolationGridStoreRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newC := func() *Characterizer {
		return NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), Config{Cycles: 999, Seed: 5})
	}
	cold, warm := newC(), newC()
	cold.SetStore(st)
	warm.SetStore(st)
	keys := map[Key]bool{}
	for _, op := range isa.AllOps() {
		if !isa.IsALU(op) || keys[KeyFor(op, nil)] {
			continue
		}
		k := KeyFor(op, nil)
		keys[k] = true
		ch, err := cold.At(k, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		want := newViolationGrid(ch)
		dec, err := decodeViolationGrid(encodeViolationGrid(want))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("%v: decoded grid differs from the counted one: %s", k, diffGrid(dec, want))
		}
		if _, err := cold.GridAt(k, 0.7); err != nil {
			t.Fatal(err)
		}
		got, err := warm.GridAt(k, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: stored grid differs from the counted one: %s", k, diffGrid(got, want))
		}
	}
	n := int64(len(keys))
	if cold.GridsBuilt() != n || warm.GridsLoaded() != n || warm.GridsBuilt() != 0 {
		t.Errorf("grids: cold built %d, warm built %d and loaded %d, want %d, 0 and %d",
			cold.GridsBuilt(), warm.GridsBuilt(), warm.GridsLoaded(), n, n)
	}
	if warm.ComputedCount() != 0 || warm.LoadedCount() != 0 {
		t.Errorf("warm grids touched characterizations: %d computed, %d loaded", warm.ComputedCount(), warm.LoadedCount())
	}
}

// gridHeaderLen is the byte length of an encoded violation grid's
// header, before its active endpoints.
const gridHeaderLen = len(gridMagic) + 28

// TestMisshapedGridBlobRebuilds stores, for each way a grid blob can
// fail to fit — wrong sizes, Active out of order or beyond the unit's
// endpoints, a count above the cycles, rising along the grid or zero
// for an active endpoint, another cycle count or step, a MaxPs the
// length does not match, a foreign magic — a mutated copy of the right
// grid, and asserts that GridAt misses, rebuilds the grid bit-identical
// from the stored characterization (simulating nothing), and replaces
// the blob with a good one.
func TestMisshapedGridBlobRebuilds(t *testing.T) {
	le := binary.LittleEndian
	key := Key{Unit: circuit.UnitAdd, Gen: "u32"} // unflagged: 32 endpoints
	want := newViolationGrid(newSmallCharacterizer().RunSerial(key, 0.7))
	na := len(want.Active)
	if na < 2 || want.Active[na-1] != circuit.Width-1 {
		t.Fatalf("fixture grid's active endpoints %v do not reach the last result bit", want.Active)
	}
	// count returns the offset of count j.
	count := func(j int) int { return gridHeaderLen + 4*na + 4*j }
	cases := map[string]func(b []byte) []byte{
		"magic":          func(b []byte) []byte { b[0] ^= 1; return b },
		"trailing bytes": func(b []byte) []byte { return append(b, 0, 0, 0, 0) },
		"truncated":      func(b []byte) []byte { return b[:len(b)-4] },
		"header only":    func(b []byte) []byte { return b[:gridHeaderLen] },
		"short header":   func(b []byte) []byte { return b[:gridHeaderLen-1] },
		"cycles":         func(b []byte) []byte { le.PutUint32(b[5:], le.Uint32(b[5:])+1); return b },
		"points":         func(b []byte) []byte { le.PutUint32(b[9:], le.Uint32(b[9:])-1); return b },
		"active count":   func(b []byte) []byte { le.PutUint32(b[13:], le.Uint32(b[13:])-1); return b },
		"step": func(b []byte) []byte {
			return slices.Concat(b[:17], artifact.AppendFloat64s(nil, []float64{2}), b[25:])
		},
		"max": func(b []byte) []byte {
			return slices.Concat(b[:25], artifact.AppendFloat64s(nil, []float64{want.MaxPs + 5}), b[33:])
		},
		"active order": func(b []byte) []byte {
			le.PutUint32(b[gridHeaderLen+4:], le.Uint32(b[gridHeaderLen:]))
			return b
		},
		"active beyond unit": func(b []byte) []byte {
			le.PutUint32(b[gridHeaderLen+4*(na-1):], circuit.FlagEndpoint)
			return b
		},
		"active beyond endpoints": func(b []byte) []byte {
			le.PutUint32(b[gridHeaderLen+4*(na-1):], circuit.NumEndpoints)
			return b
		},
		"count above cycles": func(b []byte) []byte { le.PutUint32(b[count(0):], uint32(want.cycles+1)); return b },
		"count rises": func(b []byte) []byte {
			j := len(want.Rows) - 1 // the last point: nothing violates
			le.PutUint32(b[count(j):], le.Uint32(b[count(j-na):])+1)
			return b
		},
		"active never violates": func(b []byte) []byte {
			for j := na - 1; j < len(want.Rows); j += na {
				le.PutUint32(b[count(j):], 0)
			}
			return b
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			seed := newSmallCharacterizer()
			seed.SetStore(st)
			if _, err := seed.At(key, 0.7); err != nil {
				t.Fatal(err)
			}
			c := newSmallCharacterizer()
			c.SetStore(st)
			if err := st.Put(artifact.KindViolationGrid, c.gridStoreKey(key, 0.7), mutate(encodeViolationGrid(want))); err != nil {
				t.Fatal(err)
			}
			got, err := c.GridAt(key, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			if c.GridsBuilt() != 1 || c.GridsLoaded() != 0 || c.ComputedCount() != 0 || c.LoadedCount() != 1 {
				t.Fatalf("grids %d built, %d loaded; characterizations %d computed, %d loaded: mis-shaped blob was served or the grid not rebuilt from the stored characterization",
					c.GridsBuilt(), c.GridsLoaded(), c.ComputedCount(), c.LoadedCount())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rebuilt grid differs from the reference: %s", diffGrid(got, want))
			}
			warm := newSmallCharacterizer()
			warm.SetStore(st)
			if _, err := warm.GridAt(key, 0.7); err != nil {
				t.Fatal(err)
			}
			if warm.GridsLoaded() != 1 {
				t.Error("rebuilt grid did not replace the mis-shaped blob")
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
	if err := st.Put(artifact.KindViolationGrid, c.gridStoreKey(key, 0.7), encodeViolationGrid(want)); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GridAt(key, 0.7); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("well-shaped blob: %v, equal %v", err, reflect.DeepEqual(got, want))
	}
	if c.GridsLoaded() != 1 || c.GridsBuilt() != 0 {
		t.Errorf("well-shaped blob missed: built %d, loaded %d", c.GridsBuilt(), c.GridsLoaded())
	}
}

// TestCorruptViolationGridBlobNeverServed flips a spread of bytes across
// a stored grid blob — every envelope and header byte, the checksum,
// and counts throughout the payload — and asserts that every flip
// misses.
func TestCorruptViolationGridBlobNeverServed(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Unit: circuit.UnitMul, Gen: "u8"}
	cold := newSmallCharacterizer()
	cold.SetStore(st)
	want, err := cold.GridAt(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(st.Dir(), artifact.KindViolationGrid+"-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("blobs %v, %v", files, err)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int
	for i := 0; i < 512 && i < len(good); i++ {
		offsets = append(offsets, i)
	}
	for i := 512; i < len(good); i += 397 {
		offsets = append(offsets, i)
	}
	offsets = append(offsets, len(good)-1)
	c := newSmallCharacterizer()
	c.SetStore(st)
	for _, i := range offsets {
		bad := bytes.Clone(good)
		bad[i] ^= 0x10
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, ok := c.grids.Load(c.gridStoreKey(key, 0.7), c.gridDecoder(key)); ok {
			t.Fatalf("byte %d flipped: corrupt blob was a hit (same grid: %v)", i, reflect.DeepEqual(g, want))
		}
	}
	if err := os.WriteFile(files[0], good, 0o644); err != nil {
		t.Fatal(err)
	}
	if g, ok := c.grids.Load(c.gridStoreKey(key, 0.7), c.gridDecoder(key)); !ok || !reflect.DeepEqual(g, want) {
		t.Fatal("restored blob does not load")
	}
}

// FuzzDecodeViolationGrid feeds arbitrary payloads to the grid decoder.
// It must never panic; whatever it accepts is one finished row per grid
// point over its active endpoints, and re-encodes to the same bytes.
func FuzzDecodeViolationGrid(f *testing.F) {
	// Hand-built characterizations keep the seed grids tens of points
	// long; a real one is over a thousand, which slows every execution.
	for _, ch := range []*Characterization{
		handBuilt(12.5, make([]float64, 4)),
		handBuilt(2.25, []float64{0, 3.25, 7, 9.999}, []float64{1, 0, 0, 0}, []float64{8, 8, 2, 0.5}),
		handBuilt(0.1, onBoundary(0.1, 1, 12), onBoundary(0.1, 4, 15)),
	} {
		blob := encodeViolationGrid(newViolationGrid(ch))
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
	}
	f.Add([]byte(gridMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := decodeViolationGrid(b)
		if err != nil {
			return
		}
		if len(g.Active) > circuit.NumEndpoints || len(g.Rows) != len(g.PNone)*len(g.Active) {
			t.Fatalf("accepted %d active endpoints, %d rows over %d points", len(g.Active), len(g.Rows), len(g.PNone))
		}
		if again := encodeViolationGrid(g); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding drifted:\n %x\n %x", again, b)
		}
	})
}
