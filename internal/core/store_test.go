package core

import (
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/dta"
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
	if cold.GoldenRecordedCount() != 1 || cold.GoldenLoadedCount() != 0 {
		t.Fatalf("cold counters: recorded %d, loaded %d",
			cold.GoldenRecordedCount(), cold.GoldenLoadedCount())
	}

	warm := newStoreTestSystem(t, st)
	g2, err := warm.Golden(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if warm.GoldenRecordedCount() != 0 || warm.GoldenLoadedCount() != 1 {
		t.Fatalf("warm counters: recorded %d, loaded %d — store was not consulted",
			warm.GoldenRecordedCount(), warm.GoldenLoadedCount())
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
	if s2.GoldenLoadedCount() != 0 {
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
	if s3.GoldenLoadedCount() != 0 {
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
	if s4.GoldenLoadedCount() != 0 {
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
	if cold.HazardBuiltCount() != 1 || cold.HazardLoadedCount() != 0 {
		t.Fatalf("cold counters: built %d, loaded %d",
			cold.HazardBuiltCount(), cold.HazardLoadedCount())
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
	if warm.HazardBuiltCount() != 0 || warm.HazardLoadedCount() != 1 {
		t.Fatalf("warm counters: built %d, loaded %d — store was not consulted",
			warm.HazardBuiltCount(), warm.HazardLoadedCount())
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
	if other.HazardLoadedCount() != 0 || other.HazardBuiltCount() != 1 {
		t.Errorf("changed DTA config served a stale hazard table (built %d, loaded %d)",
			other.HazardBuiltCount(), other.HazardLoadedCount())
	}
}

// A pre-delta-codec cache holding a gob-encoded trace is a miss: the
// loader decodes only the delta format, so the golden is re-recorded
// (bit-identical to the fresh one) and the blob overwritten with the
// delta encoding.
func TestGoldenLegacyGobPayloadRerecords(t *testing.T) {
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

	// Overwrite the stored payload with the legacy gob encoding.
	key, err := cold.goldenStoreKey(b, 42)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := artifact.EncodeGob(g1.Trace)
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
	if warm.GoldenRecordedCount() != 1 || warm.GoldenLoadedCount() != 0 {
		t.Fatalf("legacy payload not re-recorded: recorded %d, loaded %d",
			warm.GoldenRecordedCount(), warm.GoldenLoadedCount())
	}
	if !reflect.DeepEqual(g1.Trace, g2.Trace) {
		t.Error("re-recorded trace differs from the fresh one")
	}
	payload, ok, err := st.Get(artifact.KindGoldenTrace, key)
	if err != nil || !ok {
		t.Fatalf("re-recorded golden not stored: ok=%v err=%v", ok, err)
	}
	if _, err := cpu.DecodeTrace(payload); err != nil {
		t.Errorf("overwritten blob is not delta-encoded: %v", err)
	}
}
