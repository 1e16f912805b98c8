// Application-level quality extractors: every benchmark maps a finished
// run's output words to a normalized quality in [0, 1], so a trial is
// no longer just correct/incorrect — the paper's whole angle is the
// impact of timing faults on *application* performance, and "one bit
// off in one matrix element" and "garbage in every element" are very
// different application outcomes. The extractors are pure functions of
// (got, want) output words (plus, where the metric needs the input
// data, the benchmark's input seed): kmeans scores the clustering
// distortion ratio, matrix multiplication an SNR-derived score, median
// its relative-error exactness, Dijkstra the mean path-cost relative
// error, and everything else (checksum, microkernels, custom kernels)
// strict bit-exactness.

package bench

import "math"

// QualityFunc maps a finished run's output words to a normalized
// application-level quality in [0, 1]: 1.0 means the output is as good
// as the golden run (bit-exact outputs always score exactly 1.0), 0
// means application-useless. Implementations are total over arbitrary
// got words — faulty runs write garbage — and never return NaN or
// infinities.
type QualityFunc func(got, want []uint32) float64

// QualityAt returns the benchmark's quality extractor bound to one
// input seed (metrics that need the input data — the kmeans distortion
// — regenerate it from the seed; everything else ignores it).
// Benchmarks without an explicit Quality constructor score strict
// bit-exactness, the conservative default for custom kernels.
func (b *Benchmark) QualityAt(inputSeed int64) QualityFunc {
	if b.Quality == nil {
		return BitExactQuality
	}
	return b.Quality(inputSeed)
}

// clamp01 pins a quality score into [0, 1] and maps NaN (0/0 corner
// cases in ratio metrics) to 0 — no extractor may leak NaN/Inf.
func clamp01(q float64) float64 {
	if math.IsNaN(q) || q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// BitExactQuality scores 1.0 for bit-exact outputs and 0 otherwise —
// the quality notion of the checksum and instruction microkernels,
// whose outputs have no graceful degradation to measure, and the
// default for kernels without a registered extractor.
func BitExactQuality(got, want []uint32) float64 {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if got[i] != want[i] {
			return 0
		}
	}
	return 1
}

// SNRQuality scores the output signal-to-noise ratio, mapped from the
// linear power ratio S/N onto [0, 1] as S/(S+N) (monotone in SNR, 1.0
// at zero noise): S is the golden output's signal power, N the error
// power of the deviation, both over signed 32-bit interpretations —
// the matrix-multiplication quality metric. Adding error power (e.g.
// corrupting one more previously-correct word) strictly lowers the
// score.
func SNRQuality(got, want []uint32) float64 {
	s, n, ok := signalNoisePower(got, want)
	if !ok {
		return 0
	}
	if n == 0 {
		return 1 // bit-exact (or zero-signal exact): no noise at all
	}
	if s == 0 {
		return 0
	}
	return clamp01(s / (s + n))
}

func signalNoisePower(got, want []uint32) (s, n float64, ok bool) {
	if len(got) != len(want) || len(got) == 0 {
		return 0, 0, false
	}
	for i := range got {
		w := float64(int32(want[i]))
		d := float64(int32(got[i])) - w
		s += w * w
		n += d * d
	}
	return s, n, true
}

// RelErrQuality scores one minus the capped relative error of the
// single-word output — the median benchmark's exactness metric: 1.0
// when the reported median is exact, falling linearly to 0 at 100%
// relative error.
func RelErrQuality(got, want []uint32) float64 {
	return clamp01(1 - RelativeErrorPct(got, want)/100)
}

// PathCostQuality scores the mean per-pair path-cost relative error of
// the Dijkstra distance matrix, each pair's error capped at 100%:
// quality 1.0 means every minimum distance is exact, and a single
// corrupted pair among the 100 costs at most 1% of quality — unlike
// the boolean verdict, which a single off-by-one distance already
// fails. A zero golden distance (the diagonal) scores exact-or-wrong.
func PathCostQuality(got, want []uint32) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return 0
	}
	var errSum float64
	for i := range got {
		w := float64(want[i])
		g := float64(got[i])
		switch {
		case got[i] == want[i]:
			// exact: no error
		case w == 0:
			errSum += 1
		default:
			e := math.Abs(g-w) / w
			if e > 1 {
				e = 1
			}
			errSum += e
		}
	}
	return clamp01(1 - errSum/float64(len(got)))
}

// kmeansQuality builds the k-means distortion-ratio extractor for one
// input seed: the inputs are regenerated from the seed, and a
// membership vector is scored by its clustering distortion (sum of
// squared distances of every point to the centroid — the mean — of its
// assigned cluster). Quality is the golden-to-actual distortion ratio
// clamped into [0, 1]: 1.0 for the golden membership (or any equally
// good or better clustering — a faulty run that lucks into a lower
// distortion is not penalized), falling as misassignments move points
// away from their natural clusters. Garbage membership words (outside
// [0, K)) are charged the maximum squared point distance.
func kmeansQuality(inputSeed int64) QualityFunc {
	px, py := kmeansInputs(inputSeed)
	return func(got, want []uint32) float64 {
		if len(got) != KMeansPoints || len(want) != KMeansPoints {
			// Not a membership vector of this benchmark (custom harness
			// input): degrade to strict bit-exactness so the "bit-exact
			// scores exactly 1.0" contract stays total.
			return BitExactQuality(got, want)
		}
		dw := kmeansDistortion(px, py, want)
		dg := kmeansDistortion(px, py, got)
		if dg == 0 {
			return 1
		}
		return clamp01(dw / dg)
	}
}

// kmeansMaxSqDist is the largest possible squared distance between two
// points of the 8-bit coordinate space, charged for invalid membership
// words.
const kmeansMaxSqDist = 2 * 255 * 255

// kmeansDistortion computes the clustering distortion of a membership
// vector over the given points: centroids are the float means of each
// cluster's assigned points, distortion the sum of squared
// point-to-centroid distances. Invalid memberships contribute the
// worst-case squared distance and never drag a centroid.
func kmeansDistortion(px, py []uint32, member []uint32) float64 {
	var sx, sy [KMeansK]float64
	var cnt [KMeansK]int
	for i, m := range member {
		if m < KMeansK {
			sx[m] += float64(px[i])
			sy[m] += float64(py[i])
			cnt[m]++
		}
	}
	var d float64
	for i, m := range member {
		if m >= KMeansK {
			d += kmeansMaxSqDist
			continue
		}
		cx := sx[m] / float64(cnt[m])
		cy := sy[m] / float64(cnt[m])
		dx := float64(px[i]) - cx
		dy := float64(py[i]) - cy
		d += dx*dx + dy*dy
	}
	return d
}
