package mc

import (
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"
)

// qualityOverlap reports whether the Wilson-style intervals of two
// quality means (fractional successes over n trials) intersect at 99%
// confidence — the statistical-equivalence tolerance between trial
// paths that share a law but not an RNG stream.
func qualityOverlap(m1 float64, n1 int, m2 float64, n2 int) bool {
	lo1, hi1 := stats.WilsonFrac(m1*float64(n1), n1, wilsonZ99)
	lo2, hi2 := stats.WilsonFrac(m2*float64(n2), n2, wilsonZ99)
	return lo1 <= hi2 && lo2 <= hi1
}

// checkQualityInvariants asserts the range contract every Point's
// quality summary obeys regardless of path: all fields in [0, 1],
// tail guarantees ordered (P99 <= P50, both <= max = 1), the mean
// inside its own Wilson interval, and the mean at least the correct
// fraction (bit-exact trials score exactly 1.0, degraded trials >= 0).
func checkQualityInvariants(t *testing.T, name string, p Point) {
	t.Helper()
	for _, f := range []struct {
		label string
		v     float64
	}{
		{"mean", p.QualityMean}, {"p50", p.QualityP50}, {"p99", p.QualityP99},
		{"lo", p.QualityLo}, {"hi", p.QualityHi},
	} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			t.Errorf("%s: quality %s = %v outside [0,1]", name, f.label, f.v)
		}
	}
	if p.QualityP99 > p.QualityP50 {
		t.Errorf("%s: P99 %v above P50 %v (tail guarantees must be ordered)",
			name, p.QualityP99, p.QualityP50)
	}
	if p.QualityMean < p.QualityLo || p.QualityMean > p.QualityHi {
		t.Errorf("%s: mean %v outside its Wilson interval [%v, %v]",
			name, p.QualityMean, p.QualityLo, p.QualityHi)
	}
	if p.QualityMean < p.CorrectPct/100-1e-12 {
		t.Errorf("%s: mean quality %v below correct fraction %v — a bit-exact trial must score exactly 1",
			name, p.QualityMean, p.CorrectPct/100)
	}
}

// A fault-free point is quality-perfect on every summary statistic,
// and its Wilson upper bound pins to exactly 1.
func TestQualityGoldenPointIsPerfect(t *testing.T) {
	for _, b := range []*bench.Benchmark{bench.Median(), bench.KMeans(), bench.MicroAdd32()} {
		spec := Spec{
			System: system(),
			Bench:  b,
			Model:  core.ModelSpec{Kind: "none"},
			Trials: 5,
			Seed:   1,
		}
		pt, err := Run(spec, 700)
		if err != nil {
			t.Fatal(err)
		}
		if pt.QualityMean != 1 || pt.QualityP50 != 1 || pt.QualityP99 != 1 || pt.QualityHi != 1 {
			t.Errorf("%s: golden point quality not perfect: %+v", b.Name, pt)
		}
		if pt.QualityLo >= 1 || pt.QualityLo < 0.5 {
			t.Errorf("%s: golden point QualityLo = %v, want a nontrivial bound below 1", b.Name, pt.QualityLo)
		}
		checkQualityInvariants(t, b.Name, pt)
	}
}

// TestQualityScanMatchesFull extends the scan/full bit-identity
// guarantee to the quality distribution: the replay scan must produce
// exactly the full-execution Point, quality fields included, because
// quality scoring consumes no RNG and the fault-free replay
// short-circuit scores qual(want, want) — the same float computation
// the full path performs on bit-exact outputs.
func TestQualityScanMatchesFull(t *testing.T) {
	for _, b := range []*bench.Benchmark{bench.Median(), bench.KMeans()} {
		spec := Spec{
			System: system(),
			Bench:  b,
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Trials: 10,
			Seed:   21,
		}
		for _, f := range []float64{700, 880} {
			sc, err := refRun(spec, refScan, f)
			if err != nil {
				t.Fatal(err)
			}
			full := spec
			full.Mode = ModeFull
			fu, err := Run(full, f)
			if err != nil {
				t.Fatal(err)
			}
			if sc != fu {
				t.Errorf("%s at %v MHz: scan and full Points differ:\nscan %+v\nfull %+v",
					b.Name, f, sc, fu)
			}
			checkQualityInvariants(t, b.Name, sc)
		}
	}
}

// TestQualityFirstFaultAgreesWithScan is the statistical-equivalence
// layer for the quality distribution: first-fault sampling draws a
// different RNG stream than the scan, so quality means must agree
// within overlapping Wilson intervals rather than bit-for-bit — below
// inside the degradation region, for a graceful-degradation metric
// (kmeans distortion) and a strict one (median exactness). Fault-free
// agreement needs no sampling: both paths short-circuit to exactly 1.0
// (TestQualityGoldenPointIsPerfect, TestQualityScanMatchesFull), so
// only the degraded operating point is compared — the scan pays
// O(trace) per trial, and this is the suite's -race budget hot spot.
func TestQualityFirstFaultAgreesWithScan(t *testing.T) {
	for _, b := range []*bench.Benchmark{bench.Median(), bench.KMeans()} {
		spec := Spec{
			System: system(),
			Bench:  b,
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Trials: 400,
			Seed:   13,
		}
		for _, f := range []float64{860} {
			ff, err := Run(spec, f) // ModeAuto: batched first-fault sampling
			if err != nil {
				t.Fatal(err)
			}
			sc, err := refRun(spec, refScan, f)
			if err != nil {
				t.Fatal(err)
			}
			checkQualityInvariants(t, b.Name+"/auto", ff)
			checkQualityInvariants(t, b.Name+"/scan", sc)
			if !qualityOverlap(ff.QualityMean, ff.Trials, sc.QualityMean, sc.Trials) {
				t.Errorf("%s at %v MHz: quality means disagree: auto %v vs scan %v",
					b.Name, f, ff.QualityMean, sc.QualityMean)
			}
		}
	}
}

// TestQualityScheduleIndependent pins the quality distribution into the
// engine's schedule-independence guarantee: worker count must not
// change a single bit of any Point, quality fields included, on both
// the batched sampling path and the full-execution path.
func TestQualityScheduleIndependent(t *testing.T) {
	for _, mode := range []Mode{ModeAuto, ModeFull} {
		spec := Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
			Mode:   mode,
			Trials: 60,
			Seed:   5,
		}
		freqs := []float64{700, 860}
		spec.Workers = 1
		one, err := Sweep(spec, freqs)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workers = 4
		four, err := Sweep(spec, freqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range one {
			if one[i] != four[i] {
				t.Errorf("%v point %d depends on worker count:\n1 worker  %+v\n4 workers %+v",
					mode, i, one[i], four[i])
			}
			if one[i].FreqMHz > 800 && one[i].QualityMean >= 1 {
				t.Errorf("%v point %d: expected degraded quality above the failure point, got %v",
					mode, i, one[i].QualityMean)
			}
		}
	}
}

// TestQualityCellKeyClassNoAlias guards the cache migration: grid cells
// checkpointed before per-trial quality scoring existed were stored
// under keys without the q=v1 class, and their gob Points would decode
// with silently zero quality. The new keys must carry the class, and a
// Point planted under the exact pre-quality key spelling must never be
// served to a resumed grid.
func TestQualityCellKeyClassNoAlias(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010},
		Trials: 8,
		Seed:   9,
	}
	axes := Axes{Freqs: []float64{655, 665}}
	grid := Grid{Spec: spec, Axes: axes, Store: st, Resume: true}

	plan, err := grid.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	// Plant a poisoned Point under every cell's pre-quality key — the
	// current key minus the trailing class marker, exactly what an
	// earlier version of this package would have written.
	poison := Point{FreqMHz: -1, Trials: 99999, QualityMean: -7}
	payload, err := artifact.EncodeGob(poison)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range plan {
		if !strings.HasSuffix(pc.Key, "|q=v1") {
			t.Fatalf("cell key %q lacks the quality class suffix", pc.Key)
		}
		old := strings.TrimSuffix(pc.Key, "|q=v1")
		if err := st.Put(artifact.KindGridCell, old, payload); err != nil {
			t.Fatal(err)
		}
	}

	cells, err := grid.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Cached {
			t.Fatalf("cell %v MHz served from a pre-quality checkpoint", c.Model.FreqMHz)
		}
		if c.Point.Trials != 8 || c.Point.FreqMHz < 0 {
			t.Fatalf("cell %v MHz aliased the poisoned Point: %+v", c.Model.FreqMHz, c.Point)
		}
		checkQualityInvariants(t, "resumed", c.Point)
	}

	// The same grid resumed again must now hit its own (new-format)
	// checkpoints bit-identically.
	again, err := grid.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range again {
		if !c.Cached {
			t.Errorf("second resume did not hit the new-format checkpoint at %v MHz", c.Model.FreqMHz)
		}
		if c.Point != cells[i].Point {
			t.Errorf("checkpoint round-trip drifted at %v MHz:\n%+v\n%+v",
				c.Model.FreqMHz, c.Point, cells[i].Point)
		}
	}
}

// TestQualitySubsetMergeMatchesWhole extends the distributed-execution
// contract to quality: an arbitrary leased subset of cells (RunCells)
// must reproduce exactly the Points — quality distribution included —
// of the same cells inside a whole-grid run.
func TestQualitySubsetMergeMatchesWhole(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 30,
		Seed:   17,
	}
	grid := Grid{Spec: spec, Axes: Axes{Freqs: []float64{700, 840, 880}}}
	whole, err := grid.Run()
	if err != nil {
		t.Fatal(err)
	}
	subset, err := grid.RunCells(t.Context(), []int{2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subset[0].Point != whole[2].Point || subset[1].Point != whole[0].Point {
		t.Errorf("subset cells drifted from the whole grid:\nsubset %+v\nwhole  %+v",
			subset, whole)
	}
}
