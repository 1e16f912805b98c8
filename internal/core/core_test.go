package core

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/dta"
	"repro/internal/timing"
)

var (
	once sync.Once
	sys  *System
)

func system() *System {
	once.Do(func() {
		cfg := DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 512, Seed: 5}
		sys = New(cfg)
	})
	return sys
}

func TestSTALimitAnchored(t *testing.T) {
	s := system()
	if got := s.STALimitMHz(0.7); math.Abs(got-707) > 0.1 {
		t.Errorf("STA limit @0.7V = %v, want 707", got)
	}
	// Higher voltage raises the limit; the 0.8 V limit lands near the
	// paper's Fig. 5(d-f) range (about 950 MHz).
	hi := s.STALimitMHz(0.8)
	if hi < 900 || hi > 1000 {
		t.Errorf("STA limit @0.8V = %v, want about 955", hi)
	}
	if s.STALimitMHz(0.6) >= 707 {
		t.Errorf("lower voltage did not lower the limit")
	}
}

func TestNonALUSafeLimit(t *testing.T) {
	s := system()
	if got := s.NonALUSafeMHz(0.7); math.Abs(got-1150) > 0.1 {
		t.Errorf("non-ALU limit @0.7V = %v, want 1150", got)
	}
	if _, err := s.Model(ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 1200}); err == nil {
		t.Errorf("model constructed beyond the non-ALU safe limit")
	}
	if _, err := s.Model(ModelSpec{Kind: "B", Vdd: 0.7, FreqMHz: 1100}); err != nil {
		t.Errorf("model rejected within the safe limit: %v", err)
	}
}

func TestModelFactory(t *testing.T) {
	s := system()
	cases := map[string]string{
		"none": "none", "A": "A", "B": "B", "B+": "B+", "C": "C",
	}
	for kind, want := range cases {
		m, err := s.Model(ModelSpec{Kind: kind, Vdd: 0.7, FreqMHz: 800, Sigma: 0.01})
		if err != nil {
			t.Fatalf("model %q: %v", kind, err)
		}
		if m.Name() != want {
			t.Errorf("model %q named %q", kind, m.Name())
		}
	}
	if _, err := s.Model(ModelSpec{Kind: "Z", Vdd: 0.7, FreqMHz: 800}); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if _, err := s.Model(ModelSpec{Kind: "C", Vdd: 0.2, FreqMHz: 800}); err == nil {
		t.Errorf("sub-threshold supply accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []ModelSpec{
		{Kind: "C", Vdd: 0.7, FreqMHz: 0},
		{Kind: "B", Vdd: 0.7, FreqMHz: -100},
		{Kind: "C", Vdd: 0.7, FreqMHz: nan},
		{Kind: "B+", Vdd: 0.7, FreqMHz: inf},
		{Kind: "C", Vdd: nan, FreqMHz: 800},
		{Kind: "B", Vdd: inf, FreqMHz: 800},
		{Kind: "B+", Vdd: 0.7, FreqMHz: 800, Sigma: -0.01},
		{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: -0.01},
		{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: nan},
		{Kind: "B+", Vdd: 0.7, FreqMHz: 800, Sigma: inf},
	} {
		if _, err := s.NewModel(bad); err == nil {
			t.Errorf("invalid operating point accepted: %+v", bad)
		}
	}
}

// TestModelCache checks that Model reuses instances per spec while
// NewModel always rebuilds, and that distinct specs get distinct
// entries.
func TestModelCache(t *testing.T) {
	s := system()
	spec := ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: 0.01}
	a, err := s.Model(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Model(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same spec produced distinct model instances")
	}
	c, err := s.Model(ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 810, Sigma: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("different frequencies shared one cache entry")
	}
	fresh, err := s.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a {
		t.Errorf("NewModel returned the cached instance")
	}
	// Equal profiles must hit the same entry regardless of map identity.
	p1 := dta.Profile{0: "u16"}
	p2 := dta.Profile{0: "u16"}
	m1, err := s.Model(ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Profile: p1})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Model(ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Profile: p2})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("equal profiles missed the cache")
	}
	if m1 == a {
		t.Errorf("profiled spec shared the unprofiled entry")
	}
}

// TestModelCacheConcurrent hammers one spec from many goroutines; the
// race detector guards the locking and every caller must observe the
// same instance.
func TestModelCacheConcurrent(t *testing.T) {
	s := system()
	spec := ModelSpec{Kind: "B+", Vdd: 0.7, FreqMHz: 790, Sigma: 0.01}
	const n = 16
	models := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Model(spec)
			if err == nil {
				models[i] = m
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if models[i] != models[0] {
			t.Fatalf("goroutine %d observed a different instance", i)
		}
	}
}

// TestGoldenCache checks the golden-trace cache: repeated lookups share
// one recorded execution, distinct (benchmark, seed) keys get distinct
// entries, the recorded trace is internally consistent, and per-trial-
// input benchmarks are rejected.
func TestGoldenCache(t *testing.T) {
	s := system()
	med := bench.Median()
	a, err := s.Golden(med, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Golden(med, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same key produced distinct golden traces")
	}
	c, err := s.Golden(med, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("different input seeds shared one cache entry")
	}
	d, err := s.Golden(bench.Dijkstra(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Errorf("different benchmarks shared one cache entry")
	}
	if a.Trace.Status != cpu.StatusExited {
		t.Errorf("golden trace recorded status %v", a.Trace.Status)
	}
	if len(a.Queries) != len(a.Trace.Events) || uint64(len(a.Queries)) != a.Trace.KernelALUCycles {
		t.Errorf("query stream has %d entries, trace %d events over %d kernel ALU cycles",
			len(a.Queries), len(a.Trace.Events), a.Trace.KernelALUCycles)
	}
	if !queriesAreEvents(a) {
		t.Errorf("recorded golden's query stream is a copy of its trace events")
	}
	if n := unsafe.Sizeof(cpu.TraceEvent{}); n != 12 {
		t.Errorf("cpu.TraceEvent is %d bytes, want 12", n)
	}
	if len(a.Trace.Checkpoints) == 0 || a.Trace.Checkpoints[0].Cycles != 0 {
		t.Errorf("golden trace missing the reset checkpoint")
	}
	if _, err := s.Golden(bench.MicroAdd32(), 42); err == nil {
		t.Errorf("per-trial-input benchmark accepted by the golden cache")
	}
}

// queriesAreEvents reports whether g's query stream is its trace's
// event slice itself: one backing array, same length and capacity.
func queriesAreEvents(g *Golden) bool {
	return len(g.Queries) == len(g.Trace.Events) && cap(g.Queries) == cap(g.Trace.Events) &&
		unsafe.SliceData(g.Queries) == unsafe.SliceData(g.Trace.Events)
}

// TestGoldenCacheConcurrent hammers one key from many goroutines; the
// race detector guards the locking and every caller must observe the
// same instance.
func TestGoldenCacheConcurrent(t *testing.T) {
	s := system()
	const n = 16
	goldens := make([]*Golden, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Golden(bench.KMeans(), 42)
			if err == nil {
				goldens[i] = g
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if goldens[i] == nil || goldens[i] != goldens[0] {
			t.Fatalf("goroutine %d observed a different golden instance", i)
		}
	}
}

func TestDefaultsAreThePaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Circuit.STAFreqMHz != 707 {
		t.Errorf("STA constraint %v", cfg.Circuit.STAFreqMHz)
	}
	if cfg.NonALUSafeMHz != 1150 {
		t.Errorf("non-ALU limit %v", cfg.NonALUSafeMHz)
	}
	if cfg.DTA.Cycles != 8192 {
		t.Errorf("DTA kernel %v cycles, paper uses 8k", cfg.DTA.Cycles)
	}
	if cfg.Vdd != timing.DefaultVddDelay() {
		t.Errorf("vdd model not the calibrated default")
	}
}
