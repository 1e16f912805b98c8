package mc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/isa"
)

// TestStoreTrafficPinned pins the artifact traffic of the three grid
// starts the store exists for, on one store: a cold grid, a warm grid on
// a fresh System (every violation grid, golden trace and hazard table
// loads, no raw characterization is read, every cell recomputes and is
// written again), and a resumed grid on another fresh System (every
// cell loads; nothing else is touched). The store's cumulative (hits,
// misses, puts) and each System's per-kind built/loaded counts are
// exact literals, so a change to how any kind consults or fills the
// store shows up here as a count. The cold grid misses and puts one
// characterization and one violation grid per DTA key. The warm grid
// loads fewer grids than the cold one built: model C fills a key's
// table on its first query, and with the hazard tables loaded only the
// faulting trials query, not the marginalization over the whole golden
// trace.
func TestStoreTrafficPinned(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newSys := func() *core.System {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 256
		s := core.New(cfg)
		s.AttachStore(st)
		return s
	}
	run := func(sys *core.System, resume bool) {
		t.Helper()
		g := Grid{
			Spec: Spec{System: sys, Model: core.ModelSpec{Vdd: 0.7, Sigma: 0.010}, Trials: 8, Seed: 2},
			Axes: Axes{
				Benches: []*bench.Benchmark{bench.Median(), bench.Checksum(), bench.MicroAdd16()},
				Kinds:   []string{"C", "B+"},
				Freqs:   []float64{700, 760},
			},
			Store:  st,
			Resume: resume,
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		name    string
		resume  bool
		summary string
		stats   artifact.Stats
	}{
		{"cold", false,
			"characterizations: 10 computed, 0 loaded; grids: 10 built, 0 loaded; goldens: 2 recorded, 0 loaded; hazards: 8 built, 0 loaded; models: 12 built",
			artifact.Stats{Hits: 0, Misses: 30, Puts: 42}},
		{"warm", false,
			"characterizations: 0 computed, 0 loaded; grids: 0 built, 7 loaded; goldens: 0 recorded, 2 loaded; hazards: 0 built, 8 loaded; models: 12 built",
			artifact.Stats{Hits: 17, Misses: 30, Puts: 54}},
		{"resume", true,
			"characterizations: 0 computed, 0 loaded; grids: 0 built, 0 loaded; goldens: 0 recorded, 0 loaded; hazards: 0 built, 0 loaded; models: 0 built",
			artifact.Stats{Hits: 29, Misses: 30, Puts: 54}},
	} {
		sys := newSys()
		run(sys, step.resume)
		if got := sys.CacheSummary(); got != step.summary {
			t.Errorf("%s grid counts:\n got %s\nwant %s", step.name, got, step.summary)
		}
		if got := st.Stats(); got != step.stats {
			t.Errorf("%s grid store traffic: got %+v, want %+v", step.name, got, step.stats)
		}
	}
}

// warmGridPair runs one model-C grid on a cold System and again on a
// fresh System over the same store, at faulting frequencies, and returns
// both results and the warm System.
func warmGridPair(t *testing.T, sampling fi.Sampling) (cold, warm []CellResult, warmSys *core.System) {
	t.Helper()
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]CellResult, *core.System) {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = 256
		sys := core.New(cfg)
		sys.AttachStore(st)
		cells, err := Grid{
			Spec: Spec{System: sys, Model: core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010, Sampling: sampling}, Trials: 12, Seed: 4},
			Axes: Axes{Benches: []*bench.Benchmark{bench.Median(), bench.Checksum()}, Freqs: []float64{720, 780}},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cells, sys
	}
	cold, _ = run()
	warm, warmSys = run()
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm grid drifted from cold:\n%+v\n%+v", cold, warm)
	}
	faulted := false
	for _, c := range warm {
		faulted = faulted || c.Point.FIRate > 0
	}
	if !faulted {
		t.Fatal("no cell faulted — the grid cannot exercise the tables")
	}
	return cold, warm, warmSys
}

// TestWarmIndependentGridReadsNoCharacterization: under independent
// sampling a warm model-C grid reads only violation grids. Every
// characterization Get either loads or builds, so zero of both means
// zero dta-characterization Gets.
func TestWarmIndependentGridReadsNoCharacterization(t *testing.T) {
	_, _, warm := warmGridPair(t, fi.Independent)
	if c, l := warm.Char.ComputedCount(), warm.Char.LoadedCount(); c != 0 || l != 0 {
		t.Errorf("warm independent grid touched characterizations: %d computed, %d loaded", c, l)
	}
	if warm.Char.GridsBuilt() != 0 || warm.Char.GridsLoaded() == 0 {
		t.Errorf("warm grid did not load its violation grids: %s", warm.CacheSummary())
	}
}

// TestWarmJointGridLoadsCharacterizationsLazily: joint sampling reads
// the raw arrivals, so a warm joint grid loads a key's characterization
// beside its violation grid, and only for the keys its queries touch —
// never all of the ALU's keys — with points bit-identical to cold.
func TestWarmJointGridLoadsCharacterizationsLazily(t *testing.T) {
	_, _, warm := warmGridPair(t, fi.Joint)
	all := map[dta.Key]bool{}
	for _, b := range []*bench.Benchmark{bench.Median(), bench.Checksum()} {
		for _, op := range isa.AllOps() {
			if isa.IsALU(op) {
				all[dta.KeyFor(op, b.Profile)] = true
			}
		}
	}
	loaded := warm.Char.LoadedCount()
	if warm.Char.ComputedCount() != 0 || warm.Char.GridsBuilt() != 0 {
		t.Errorf("warm joint grid recomputed: %s", warm.CacheSummary())
	}
	if loaded == 0 || loaded != warm.Char.GridsLoaded() || loaded >= int64(len(all)) {
		t.Errorf("warm joint grid loaded %d characterizations and %d grids, want one per touched key, fewer than %d: %s",
			loaded, warm.Char.GridsLoaded(), len(all), warm.CacheSummary())
	}
}

// layoutDigest hashes the field names and types of the structs a cell
// key is derived from, in declaration order.
func layoutDigest(types ...reflect.Type) string {
	h := sha256.New()
	for _, t := range types {
		fmt.Fprintf(h, "%s{", t)
		for i := range t.NumField() {
			f := t.Field(i)
			fmt.Fprintf(h, "%s %s;", f.Name, f.Type)
		}
		fmt.Fprint(h, "}")
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestCellLayoutPinned ties the layouts of Point, Spec and
// core.ModelSpec to the cell-key markers. A field added to, removed from
// or retyped in any of them changes the digest, and the digest is
// pinned per (rngLaw, qualityClass) pair: the change fails here until a
// marker is bumped (a checkpointed Point of the old layout would
// decode with zero or dropped fields, a new Spec field may change
// results without changing the key) and the new pair's digest is added.
func TestCellLayoutPinned(t *testing.T) {
	pinned := map[string]string{
		"rng=x1|q=v1": "d6ee43726ca23f647331e717d9ac215a",
	}
	markers := "rng=" + rngLaw + "|q=" + qualityClass
	got := layoutDigest(reflect.TypeFor[Point](), reflect.TypeFor[Spec](), reflect.TypeFor[core.ModelSpec]())
	want, ok := pinned[markers]
	if !ok {
		t.Fatalf("no layout digest pinned for %s: add %q", markers, got)
	}
	if got != want {
		t.Errorf("cell layout digest %s, pinned %s for %s: a field of Point, Spec or core.ModelSpec changed; bump rngLaw or qualityClass in grid.go and pin the new digest", got, want, markers)
	}
}
