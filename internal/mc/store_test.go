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
)

// TestStoreTrafficPinned pins the artifact traffic of the three grid
// starts the store exists for, on one store: a cold grid, a warm grid on
// a fresh System (every characterization, golden trace and hazard table
// loads, every cell recomputes and is written again), and a resumed grid
// on another fresh System (every cell loads; nothing else is touched).
// The store's cumulative (hits, misses, puts) and each System's
// per-kind built/loaded counts are exact literals, so a change to how
// any kind consults or fills the store shows up here as a count. The
// warm grid loads fewer characterizations than the cold one computed:
// model C characterizes a key on its first query, and with the hazard
// tables loaded only the faulting trials query, not the marginalization
// over the whole golden trace.
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
			"characterizations: 10 computed, 0 loaded; goldens: 2 recorded, 0 loaded; hazards: 8 built, 0 loaded; models: 12 built",
			artifact.Stats{Hits: 0, Misses: 20, Puts: 32}},
		{"warm", false,
			"characterizations: 0 computed, 7 loaded; goldens: 0 recorded, 2 loaded; hazards: 0 built, 8 loaded; models: 12 built",
			artifact.Stats{Hits: 17, Misses: 20, Puts: 44}},
		{"resume", true,
			"characterizations: 0 computed, 0 loaded; goldens: 0 recorded, 0 loaded; hazards: 0 built, 0 loaded; models: 0 built",
			artifact.Stats{Hits: 29, Misses: 20, Puts: 44}},
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
