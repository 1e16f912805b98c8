package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/isa"
)

func newStoreTestSystem(t *testing.T, st *artifact.Store) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 256, Seed: 5}
	s := New(cfg)
	s.AttachStore(st)
	return s
}

// A golden trace persisted by one system must come back bit-identical
// from a fresh system over the same store, without re-executing.
func TestGoldenTraceStoreRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := bench.Median()

	cold := newStoreTestSystem(t, st)
	g1, err := cold.Golden(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cold.GoldenRecordedCount() != 1 || cold.goldens.Loaded() != 0 {
		t.Fatalf("cold counters: recorded %d, loaded %d",
			cold.GoldenRecordedCount(), cold.goldens.Loaded())
	}

	warm := newStoreTestSystem(t, st)
	g2, err := warm.Golden(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if warm.GoldenRecordedCount() != 0 || warm.goldens.Loaded() != 1 {
		t.Fatalf("warm counters: recorded %d, loaded %d — store was not consulted",
			warm.GoldenRecordedCount(), warm.goldens.Loaded())
	}

	// The whole recorded execution must round-trip bit for bit: events
	// (the injector argument stream), the store log, every checkpoint,
	// and the run totals.
	if !reflect.DeepEqual(g1.Trace.Events, g2.Trace.Events) {
		t.Error("trace events drifted through the store")
	}
	if !reflect.DeepEqual(g1.Trace.Stores, g2.Trace.Stores) {
		t.Error("store log drifted through the store")
	}
	if !reflect.DeepEqual(g1.Trace.Checkpoints, g2.Trace.Checkpoints) {
		t.Error("checkpoints drifted through the store")
	}
	if g1.Trace.Cycles != g2.Trace.Cycles || g1.Trace.KernelCycles != g2.Trace.KernelCycles ||
		g1.Trace.KernelALUCycles != g2.Trace.KernelALUCycles ||
		g1.Trace.Retired != g2.Trace.Retired || g1.Trace.Status != g2.Trace.Status ||
		g1.Trace.CheckpointEvery != g2.Trace.CheckpointEvery {
		t.Error("trace totals drifted through the store")
	}
	if !reflect.DeepEqual(g1.Queries, g2.Queries) {
		t.Error("derived query stream drifted")
	}
	if !queriesAreEvents(g2) {
		t.Error("store-loaded golden's query stream is a copy of its trace events")
	}
	if !reflect.DeepEqual(g1.Want, g2.Want) {
		t.Error("rebuilt golden outputs drifted")
	}
}

// Different input seeds and different CPU configs must not alias.
func TestGoldenStoreKeySeparation(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := bench.Median()
	s1 := newStoreTestSystem(t, st)
	if _, err := s1.Golden(b, 42); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreTestSystem(t, st)
	if _, err := s2.Golden(b, 43); err != nil {
		t.Fatal(err)
	}
	if s2.goldens.Loaded() != 0 {
		t.Error("different input seed was served from the other seed's trace")
	}

	cfg := DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 256, Seed: 5}
	cfg.CPU.BranchPenalty++
	s3 := New(cfg)
	s3.AttachStore(st)
	if _, err := s3.Golden(b, 42); err != nil {
		t.Fatal(err)
	}
	if s3.goldens.Loaded() != 0 {
		t.Error("different CPU timing config was served from the other config's trace")
	}

	// A benchmark whose *program content* changed (same name) must miss
	// too: the key digests the generated source, not just the name.
	edited := *b
	origBuild := b.Build
	edited.Build = func(seed int64) (string, []uint32, error) {
		src, want, err := origBuild(seed)
		return src + "\n", want, err
	}
	s4 := newStoreTestSystem(t, st)
	if _, err := s4.Golden(&edited, 42); err != nil {
		t.Fatal(err)
	}
	if s4.goldens.Loaded() != 0 {
		t.Error("edited benchmark source was served the stale trace of the original program")
	}
}

// A hazard table persisted by one system must come back bit-identical
// from a fresh system over the same store, without rebuilding (the
// first-fault analogue of the golden-trace round trip above).
func TestHazardStoreRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := bench.Median()
	spec := ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 860, Sigma: 0.010}

	cold := newStoreTestSystem(t, st)
	h1, err := cold.Hazard(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.HazardBuiltCount() != 1 || cold.hazards.Loaded() != 0 {
		t.Fatalf("cold counters: built %d, loaded %d",
			cold.HazardBuiltCount(), cold.hazards.Loaded())
	}
	// A second lookup on the same system is a pure memory hit.
	h1b, err := cold.Hazard(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h1b != h1 {
		t.Fatal("repeated lookup did not return the cached instance")
	}
	if cold.HazardBuiltCount() != 1 {
		t.Fatalf("repeated lookup rebuilt the table (built %d)", cold.HazardBuiltCount())
	}

	warm := newStoreTestSystem(t, st)
	h2, err := warm.Hazard(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HazardBuiltCount() != 0 || warm.hazards.Loaded() != 1 {
		t.Fatalf("warm counters: built %d, loaded %d — store was not consulted",
			warm.HazardBuiltCount(), warm.hazards.Loaded())
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Error("hazard table did not round-trip bit-identically")
	}

	// A different operating point must not alias the cached table.
	spec2 := spec
	spec2.FreqMHz = 880
	h3, err := warm.Hazard(b, 42, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HazardBuiltCount() != 1 {
		t.Errorf("different frequency served from the store (built %d)", warm.HazardBuiltCount())
	}
	if reflect.DeepEqual(h2.LogSurv, h3.LogSurv) {
		t.Error("880 MHz hazard identical to 860 MHz hazard")
	}

	// Nor must a different system configuration: the marginals integrate
	// DTA-derived probability tables, so a changed characterization
	// config has to miss the cache (the key carries the fingerprint).
	cfg := DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 128, Seed: 5}
	other := New(cfg)
	other.AttachStore(st)
	if _, err := other.Hazard(b, 42, spec); err != nil {
		t.Fatal(err)
	}
	if other.hazards.Loaded() != 0 || other.HazardBuiltCount() != 1 {
		t.Errorf("changed DTA config served a stale hazard table (built %d, loaded %d)",
			other.HazardBuiltCount(), other.hazards.Loaded())
	}
}

// A cache written by an older trace format is a miss: a gob-encoded
// trace (from before the delta codec) or a delta blob of the first
// format, whose events still carried operand fields. The loader decodes
// only the current format, so the golden is re-recorded (bit-identical
// to the fresh one) and the blob overwritten in the current encoding.
func TestGoldenLegacyGobPayloadRerecords(t *testing.T) {
	b := bench.Median()
	legacy := map[string]func(g *Golden) ([]byte, error){
		"gob": func(g *Golden) ([]byte, error) { return artifact.EncodeGob(g.Trace) },
		"FTRD1": func(g *Golden) ([]byte, error) {
			blob, err := cpu.EncodeTrace(g.Trace)
			return append([]byte("FTRD1"), blob[len("FTRD2"):]...), err
		},
	}
	for name, encode := range legacy {
		st, err := artifact.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cold := newStoreTestSystem(t, st)
		g1, err := cold.Golden(b, 42)
		if err != nil {
			t.Fatal(err)
		}

		// Overwrite the stored payload with the legacy encoding.
		key, err := cold.goldenStoreKey(b, 42)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := encode(g1)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(artifact.KindGoldenTrace, key, blob); err != nil {
			t.Fatal(err)
		}

		warm := newStoreTestSystem(t, st)
		g2, err := warm.Golden(b, 42)
		if err != nil {
			t.Fatal(err)
		}
		if warm.GoldenRecordedCount() != 1 || warm.goldens.Loaded() != 0 {
			t.Fatalf("%s payload not re-recorded: recorded %d, loaded %d",
				name, warm.GoldenRecordedCount(), warm.goldens.Loaded())
		}
		if !reflect.DeepEqual(g1.Trace, g2.Trace) {
			t.Errorf("%s: re-recorded trace differs from the fresh one", name)
		}
		payload, ok, err := st.Get(artifact.KindGoldenTrace, key)
		if err != nil || !ok {
			t.Fatalf("%s: re-recorded golden not stored: ok=%v err=%v", name, ok, err)
		}
		if _, err := cpu.DecodeTrace(payload); err != nil {
			t.Errorf("%s: overwritten blob is not in the current format: %v", name, err)
		}
	}
}

// The flat hazard codec round-trips every float bit for bit, the -Inf
// survival tail of a deterministic injection included.
func TestHazardCodecRoundTripNegInfTail(t *testing.T) {
	h := &fi.Hazard{PerOp: make([]float64, isa.NumOps), LogSurv: []float64{0, -1e-12, -0.5, math.Inf(-1), math.Inf(-1)}}
	h.PerOp[1], h.PerOp[2], h.PerOp[3] = 1, 5e-324, math.Copysign(0, -1)
	got, err := decodeHazard(encodeHazard(h))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][]float64{{got.PerOp, h.PerOp}, {got.LogSurv, h.LogSurv}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("length %d, want %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("value %d: %v, want %v", i, pair[0][i], pair[1][i])
			}
		}
	}
	if got.Queries() != 4 || got.Survival() != 0 {
		t.Errorf("decoded table: %d queries, survival %v", got.Queries(), got.Survival())
	}
}

// A stored hazard payload of the wrong shape — a LogSurv one query short
// or long, a torn value, PerOp alone, the gob encoding of before the
// flat codec — is a miss: the table is rebuilt, bit-identical, and the
// blob overwritten with one that loads.
func TestMisshapedHazardBlobRebuilds(t *testing.T) {
	b := bench.Median()
	spec := ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 860, Sigma: 0.010}
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := newStoreTestSystem(t, st)
	want, err := ref.Hazard(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := ref.hazardStoreKey(b, 42, spec)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeHazard(want)
	gobBlob, err := artifact.EncodeGob(want)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"one query short": good[:len(good)-8],
		"one query long":  append(bytes.Clone(good), good[len(good)-8:]...),
		"torn value":      good[:len(good)-3],
		"per-op only":     good[:8*isa.NumOps],
		"gob":             gobBlob,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if err := st.Put(artifact.KindHazard, key, payload); err != nil {
				t.Fatal(err)
			}
			s := newStoreTestSystem(t, st)
			got, err := s.Hazard(b, 42, spec)
			if err != nil {
				t.Fatal(err)
			}
			if s.HazardBuiltCount() != 1 || s.hazards.Loaded() != 0 {
				t.Fatalf("built %d, loaded %d: mis-shaped blob was served", s.HazardBuiltCount(), s.hazards.Loaded())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("rebuilt table differs from the reference")
			}
			warm := newStoreTestSystem(t, st)
			if _, err := warm.Hazard(b, 42, spec); err != nil {
				t.Fatal(err)
			}
			if warm.hazards.Loaded() != 1 {
				t.Error("rebuilt table did not replace the mis-shaped blob")
			}
		})
	}
}

// FuzzDecodeHazard feeds arbitrary payloads to the hazard decoder. It
// must never panic; whatever it accepts has isa.NumOps PerOp values and
// a non-empty LogSurv, and re-encodes to the same bytes.
func FuzzDecodeHazard(f *testing.F) {
	h := &fi.Hazard{PerOp: make([]float64, isa.NumOps), LogSurv: []float64{0, -0.25, math.Inf(-1)}}
	h.PerOp[4] = 0.125
	good := encodeHazard(h)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:8*isa.NumOps])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeHazard(b)
		if err != nil {
			return
		}
		if len(h.PerOp) != isa.NumOps || len(h.LogSurv) < 1 {
			t.Fatalf("accepted %d per-op values and %d survival entries", len(h.PerOp), len(h.LogSurv))
		}
		if again := encodeHazard(h); !bytes.Equal(again, b) {
			t.Fatalf("re-encoding drifted:\n %x\n %x", again, b)
		}
	})
}

// TestBenchDigestsPinned pins every registered benchmark's program
// digest at input seed 42. The digest is the program component of every
// golden, hazard and cell key, so a change to kernel generation or to
// source rendering (bench's wordList) that alters the program bytes
// orphans every stored artifact; such a change must show up here and be
// made deliberately. The second call checks the memoized value.
func TestBenchDigestsPinned(t *testing.T) {
	want := map[string]string{
		"median":          "81e73c3464316edbb683c0ea11a3ff74",
		"mat_mult_8bit":   "2d418227b79c66b7d26dfb6199fc26e6",
		"mat_mult_16bit":  "6c1d147d567a5674bf8f8a32a3349192",
		"kmeans":          "eb8aa570e946172b40ef29dcf4e0f9be",
		"dijkstra":        "8c4a3481869b0a033549a952dde52322",
		"micro_add_16bit": "d4d1e1122dfd6459182e6e5834efa279",
		"micro_add_32bit": "162180935cb45f722b8bc63f07c60c56",
		"micro_mul_16bit": "6c77b6a7872706d7aaf234e9be35451b",
		"checksum":        "ecfe4b23af5d82321cc2b07822e4c119",
	}
	s := New(DefaultConfig())
	all := append(append(bench.All(), bench.Micros()...), bench.Extras()...)
	if len(all) != len(want) {
		t.Errorf("%d registered benchmarks, %d pinned digests", len(all), len(want))
	}
	for _, b := range all {
		for range 2 {
			got, err := s.BenchDigest(b, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[b.Name] {
				t.Errorf("BenchDigest(%s, 42) = %s, want %s", b.Name, got, want[b.Name])
			}
		}
	}
}

// Golden-trace and hazard-table keys are addresses in the store, like
// cell keys (mc's TestCellKeySpelling): a change to their spelling, or
// to how the configs they print render, turns every warm cache cold.
// This pins both for the default System; the program digest is
// TestBenchDigestsPinned's.
func TestGoldenAndHazardKeySpelling(t *testing.T) {
	s := New(DefaultConfig())
	const golden = "cpu={BranchPenalty:3 LoadUseStall:1 Watchdog:0}|bench=median" +
		"|prog=81e73c3464316edbb683c0ea11a3ff74|inputSeed=42|ckpt=4096|watchdog=100000000"
	if got, err := s.goldenStoreKey(bench.Median(), 42); err != nil || got != golden {
		t.Errorf("golden-trace key spelling changed (%v):\n got %s\nwant %s", err, got, golden)
	}
	const hazard = "sys={Circuit:{Seed:28 STAFreqMHz:707 SetupPs:30 AdderGroup:8 Tightness:map[]}" +
		" DTA:{Cycles:8192 Seed:1} Vdd:{Vt:0.3 Alpha:1.35}" +
		" Power:{Lo:{V:0.6 UWPerMHz:10.9 LeakFrac:0.02} Hi:{V:0.7 UWPerMHz:15 LeakFrac:0.03} a:31.538461538461547 b:-0.4538461538461558}" +
		" CPU:{BranchPenalty:3 LoadUseStall:1 Watchdog:0} NonALUSafeMHz:1150}" +
		"|" + golden +
		"|model={Kind:C Vdd:0.7 FreqMHz:800 Sigma:0.01 ProbA:0 Profile:3=u8; Sem:flip-bit Sampling:independent}"
	spec := ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: 0.01, Profile: dta.Profile{circuit.UnitMul: "u8"}}
	if got, err := s.hazardStoreKey(bench.Median(), 42, spec); err != nil || got != hazard {
		t.Errorf("hazard-table key spelling changed (%v):\n got %s\nwant %s", err, got, hazard)
	}
}
