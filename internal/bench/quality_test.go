package bench

import (
	"math"
	"testing"
)

// every registered benchmark, for contract checks over the whole set.
func allBenchmarks() []*Benchmark {
	return append(append(All(), Micros()...), Extras()...)
}

// TestQualityExactlyOneOnGolden is the extractor contract the mc
// engine's fault-free short-circuit depends on: for every benchmark,
// scoring the golden outputs against themselves yields exactly 1.0 —
// not approximately — so the replay shortcut (quality0) is bit-identical
// to the full-path computation on a bit-exact run.
func TestQualityExactlyOneOnGolden(t *testing.T) {
	for _, b := range allBenchmarks() {
		for _, seed := range []int64{1, 42, 1234} {
			_, want, err := b.Build(seed)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if q := b.QualityAt(seed)(want, want); q != 1.0 {
				t.Errorf("%s seed %d: quality(want, want) = %v, want exactly 1.0", b.Name, seed, q)
			}
		}
	}
}

func TestQualityNamesRegistered(t *testing.T) {
	for _, b := range allBenchmarks() {
		if b.QualityName == "" {
			t.Errorf("%s: no QualityName", b.Name)
		}
	}
	// The application kernels carry graceful-degradation metrics;
	// checksum and the micros are bit-exact by design.
	if KMeans().Quality == nil || MatMult8().Quality == nil ||
		MatMult16().Quality == nil || Median().Quality == nil || Dijkstra().Quality == nil {
		t.Error("an application kernel lacks a quality extractor")
	}
	if Checksum().Quality != nil || MicroAdd32().Quality != nil {
		t.Error("bit-exact kernels should use the default extractor")
	}
}

func TestBitExactQuality(t *testing.T) {
	if q := BitExactQuality([]uint32{1, 2}, []uint32{1, 2}); q != 1 {
		t.Errorf("exact = %v", q)
	}
	if q := BitExactQuality([]uint32{1, 3}, []uint32{1, 2}); q != 0 {
		t.Errorf("one word off = %v", q)
	}
	if q := BitExactQuality([]uint32{1}, []uint32{1, 2}); q != 0 {
		t.Errorf("length mismatch = %v", q)
	}
}

func TestSNRQuality(t *testing.T) {
	want := []uint32{100, 200, 300}
	if q := SNRQuality(want, want); q != 1 {
		t.Errorf("exact = %v, want exactly 1", q)
	}
	// One small deviation: S/(S+N) with S = 140000, N = 1.
	got := []uint32{100, 201, 300}
	q := SNRQuality(got, want)
	if q <= 0.999 || q >= 1 {
		t.Errorf("small error quality = %v, want just below 1", q)
	}
	// Corrupting an additional word strictly lowers the score.
	worse := []uint32{50, 201, 300}
	if q2 := SNRQuality(worse, want); q2 >= q {
		t.Errorf("extra error raised quality: %v -> %v", q, q2)
	}
	// Zero signal with nonzero noise is useless output.
	if q := SNRQuality([]uint32{5}, []uint32{0}); q != 0 {
		t.Errorf("zero-signal mismatch = %v", q)
	}
	if q := SNRQuality([]uint32{0}, []uint32{0}); q != 1 {
		t.Errorf("zero-signal exact = %v", q)
	}
}

func TestRelErrQuality(t *testing.T) {
	if q := RelErrQuality([]uint32{80}, []uint32{80}); q != 1 {
		t.Errorf("exact = %v", q)
	}
	if q := RelErrQuality([]uint32{60}, []uint32{80}); math.Abs(q-0.75) > 1e-12 {
		t.Errorf("25%% off = %v, want 0.75", q)
	}
	if q := RelErrQuality([]uint32{0xFFFF0000}, []uint32{80}); q != 0 {
		t.Errorf("garbage = %v, want 0 (capped)", q)
	}
}

func TestPathCostQuality(t *testing.T) {
	want := []uint32{0, 10, 20, 30}
	if q := PathCostQuality(want, want); q != 1 {
		t.Errorf("exact = %v", q)
	}
	// One pair 10% off among four: mean error 0.025.
	got := []uint32{0, 11, 20, 30}
	if q := PathCostQuality(got, want); math.Abs(q-0.975) > 1e-12 {
		t.Errorf("one 10%%-off pair = %v, want 0.975", q)
	}
	// A corrupted zero-golden (diagonal) pair charges full error.
	got = []uint32{5, 10, 20, 30}
	if q := PathCostQuality(got, want); math.Abs(q-0.75) > 1e-12 {
		t.Errorf("corrupted diagonal = %v, want 0.75", q)
	}
}

func TestKMeansQuality(t *testing.T) {
	seed := int64(42)
	_, want, err := KMeans().Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	qual := KMeans().QualityAt(seed)
	if q := qual(want, want); q != 1 {
		t.Errorf("golden membership = %v, want exactly 1", q)
	}
	// All points in one cluster: valid but (for this input set) worse.
	mono := make([]uint32, KMeansPoints)
	if q := qual(mono, want); q >= 1 || q <= 0 {
		t.Errorf("degenerate clustering = %v, want inside (0, 1)", q)
	}
	// Garbage memberships are charged the worst-case distance.
	garbage := []uint32{0xdeadbeef, 7, 9, 3, 0xffffffff, 6, 8, 5}
	qg := qual(garbage, want)
	if qg < 0 || qg > 0.5 {
		t.Errorf("garbage membership = %v, want near 0", qg)
	}
	// Foreign lengths degrade to strict bit-exactness.
	if q := qual(want[:3], want[:3]); q != 1 {
		t.Errorf("short bit-exact membership = %v, want 1 (bit-exact fallback)", q)
	}
	if q := qual([]uint32{9, 9, 9}, want[:3]); q != 0 {
		t.Errorf("short mismatched membership = %v, want 0", q)
	}
}

func TestQualityAtDefaultsToBitExact(t *testing.T) {
	b := Checksum()
	q := b.QualityAt(1)
	if got := q([]uint32{1, 2}, []uint32{1, 2}); got != 1 {
		t.Errorf("default extractor exact = %v", got)
	}
	if got := q([]uint32{1, 9}, []uint32{1, 2}); got != 0 {
		t.Errorf("default extractor mismatch = %v", got)
	}
}

// wordsFrom packs fuzz bytes into output words.
func wordsFrom(data []byte) []uint32 {
	n := len(data) / 4
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = uint32(data[4*i]) | uint32(data[4*i+1])<<8 |
			uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
	}
	return out
}

// FuzzQuality fuzzes every benchmark's extractor over arbitrary
// (got, want) word vectors: scores always land in [0, 1] (never
// NaN/Inf), bit-exact outputs score exactly 1.0, and the matmult SNR
// score is monotone under corrupting an additional correct word.
func FuzzQuality(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 3, 4, 5, 0, 7, 8}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 255, 255}, uint8(3))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(1))
	benches := allBenchmarks()
	f.Fuzz(func(t *testing.T, wantBytes, gotBytes []byte, flip uint8) {
		want := wordsFrom(wantBytes)
		got := wordsFrom(gotBytes)
		if len(want) == 0 {
			return
		}
		if len(got) > len(want) {
			got = got[:len(want)]
		}
		for len(got) < len(want) {
			got = append(got, 0)
		}
		for _, b := range benches {
			qual := b.QualityAt(42)
			q := qual(got, want)
			if q < 0 || q > 1 || math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("%s: quality(got, want) = %v outside [0,1]", b.Name, q)
			}
			if exact := qual(want, want); exact != 1.0 {
				t.Fatalf("%s: quality(want, want) = %v, want exactly 1.0", b.Name, exact)
			}
		}
		// SNR monotonicity: corrupt one currently-correct word and the
		// score must not rise.
		base := SNRQuality(got, want)
		for i := range got {
			if got[i] == want[i] {
				worse := append([]uint32(nil), got...)
				worse[i] ^= 1 << (flip % 32)
				if q2 := SNRQuality(worse, want); q2 > base {
					t.Fatalf("SNR rose under an extra bit flip: %v -> %v (word %d)", base, q2, i)
				}
				break
			}
		}
	})
}
