package main

import (
	"testing"
)

// tiny shrinks a workload to a smoke-test size: the same benchmarks,
// models and code paths, one frequency and two trials per cell.
func tiny(w workload) workload {
	w.spec.FreqHi = w.spec.FreqLo
	w.spec.Trials = 2
	return w
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0, trace: trace, setups: 1, dta: 64, dir: t.TempDir()}
}

// TestSmokeAllWorkloads runs every workload once at tiny scale, untraced
// and traced, and checks that it reports every declared metric, with
// every output check passing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			res := runWorkload(tiny(w), tinyConfig(t, trace))
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range declared(trace) {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v)
				}
			}
			if s := summaryLine([]childResult{res}, trace); s.Correct != (res.Failed == 0) {
				t.Errorf("%s trace=%v: summary correct=%v with %d failures", w.name, trace, s.Correct, res.Failed)
			}
		}
	}
}

// TestDigestMismatchCountsInErrorRatio forces a digest mismatch at the
// default seed: it is one more attempted check, it fails, and the run is
// no longer correct.
func TestDigestMismatchCountsInErrorRatio(t *testing.T) {
	ph := &phase{seed: digestSeed}
	for i, csv := range []string{"a\n", "b\n", "c\n"} {
		ph.record(&op{index: i, kind: "grid", csv: []byte(csv)})
	}
	res := childResult{Metrics: map[string]float64{}}
	res.tally(ph)
	res.checkDigest(ph, 2, "0000")
	if res.Attempted != 4 || res.Failed != 1 || errorRatio(res) != 0.25 {
		t.Fatalf("attempted %d failed %d error_ratio %g, want 4, 1, 0.25", res.Attempted, res.Failed, errorRatio(res))
	}
	if summaryLine([]childResult{res}, false).Correct {
		t.Error("a digest mismatch left the run correct")
	}

	good := childResult{Metrics: map[string]float64{}}
	good.checkDigest(ph, 2, "")
	want := good.Digest
	good = childResult{Metrics: map[string]float64{}}
	good.checkDigest(ph, 2, want)
	if good.Failed != 0 || good.Attempted != 1 {
		t.Errorf("matching digest: attempted %d failed %d", good.Attempted, good.Failed)
	}

	other := childResult{Metrics: map[string]float64{}}
	other.checkDigest(&phase{seed: digestSeed + 1, ops: ph.ops}, 2, "0000")
	if other.Attempted != 0 || other.Failed != 0 {
		t.Errorf("digest checked at a non-default seed: attempted %d failed %d", other.Attempted, other.Failed)
	}
}

func TestEveryWorkloadHasADigest(t *testing.T) {
	for _, w := range workloads() {
		d, err := expectedDigest(w.name)
		if err != nil || len(d) != 64 {
			t.Errorf("%s: digest %q, %v", w.name, d, err)
		}
	}
}

func TestDeriveSpreadsSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(0); s < 20; s++ {
		for i := int64(-1); i < 50; i++ {
			v := derive(s, i)
			if v <= 0 || seen[v] {
				t.Fatalf("derive(%d, %d) = %d: not a fresh positive seed", s, i, v)
			}
			seen[v] = true
		}
	}
	if derive(3, 4) != derive(3, 4) || derive(3, 4, 0) == derive(3, 4, 1) {
		t.Error("derive is not a deterministic function of all its parts")
	}
}
