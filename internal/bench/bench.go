// Package bench provides the software workloads of the paper's case
// study (Table 1): median (bubble-sort, control-heavy), 16x16 matrix
// multiplication in 8- and 16-bit variants (compute-heavy), k-means
// clustering of 8 2-D points (mixed), and 10-node Dijkstra (graph
// search, control-heavy), plus the instruction microkernels behind
// Fig. 4.
//
// Each benchmark consists of an assembly kernel for the simulated core, a
// bit-exact Go golden model, the paper's output-error metric, and an
// operand Profile that selects matching DTA characterizations for its
// data widths (Sec. 4.1/4.3 of the paper evaluate 8/16/32-bit variants
// whose fault statistics differ through exactly this conditioning).
//
// In the dependency graph, bench builds on asm/isa/mem and the dta
// operand profiles; the mc grid engine, the experiments runners and the
// server's job specs consume benchmarks by name through it.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/mem"
)

// Benchmark describes one workload.
type Benchmark struct {
	Name       string
	MetricName string // the paper's output-error metric for this kernel
	Profile    dta.Profile
	// PerTrialInputs regenerates inputs (and golden outputs) for every
	// Monte-Carlo trial; the paper's microkernels draw fresh uniform
	// operands per run, while the application kernels use one fixed
	// characteristic input set.
	PerTrialInputs bool
	// PaperKCycles is Table 1's kernel cycle count (reference only).
	PaperKCycles float64

	// Build returns the assembly source and expected output words for
	// an input seed.
	Build func(seed int64) (src string, want []uint32, err error)
	// OutSymbol/OutWords locate the output buffer in the data image.
	OutSymbol string
	OutWords  int
	// Metric maps (got, want) to the paper's output-error value
	// (percent for relative/mismatch metrics, raw for MSE).
	Metric func(got, want []uint32) float64

	// QualityName names the benchmark's application-level quality metric
	// (see quality.go); empty means "bit-exactness", the default.
	QualityName string
	// Quality builds the benchmark's quality extractor for one input
	// seed — extractors that need the input data (the kmeans
	// distortion) regenerate it from the seed, all others ignore it.
	// Nil selects BitExactQuality; consume through QualityAt.
	Quality func(inputSeed int64) QualityFunc
}

// Outputs extracts the benchmark's output words after a run.
func (b *Benchmark) Outputs(m *mem.Memory, p *asm.Program) ([]uint32, error) {
	addr, ok := p.Symbols[b.OutSymbol]
	if !ok {
		return nil, fmt.Errorf("bench: %s: output symbol %q missing", b.Name, b.OutSymbol)
	}
	return m.ReadWords(addr, b.OutWords)
}

// All returns the paper's four application kernels in Table 1 order.
func All() []*Benchmark {
	return []*Benchmark{
		Median(), MatMult8(), MatMult16(), KMeans(), Dijkstra(),
	}
}

// Micros returns the Fig. 4 instruction-characterization kernels.
func Micros() []*Benchmark {
	return []*Benchmark{MicroAdd16(), MicroAdd32(), MicroMul16()}
}

// Extras returns kernels outside the paper's tables: stress and
// harness workloads reachable by name only.
func Extras() []*Benchmark {
	return []*Benchmark{Checksum()}
}

// ByName finds a benchmark among All, Micros and Extras.
func ByName(name string) (*Benchmark, error) {
	all := append(append(All(), Micros()...), Extras()...)
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// ---------------------------------------------------------------------
// Metrics

// RelativeErrorPct is the median benchmark's metric: the relative
// difference of the (single-word) output in percent, capped at 100.
func RelativeErrorPct(got, want []uint32) float64 {
	if len(got) == 0 || len(want) == 0 {
		return 100
	}
	w := float64(int32(want[0]))
	g := float64(int32(got[0]))
	if w == 0 {
		if g == 0 {
			return 0
		}
		return 100
	}
	e := math.Abs(g-w) / math.Abs(w) * 100
	if e > 100 {
		e = 100
	}
	return e
}

// MSEMetric is the matrix-multiplication / microkernel metric: mean
// squared error over the output words, interpreted as signed values.
func MSEMetric(got, want []uint32) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return math.Inf(1)
	}
	var s float64
	for i := range got {
		d := float64(int32(got[i])) - float64(int32(want[i]))
		s += d * d
	}
	return s / float64(len(got))
}

// MismatchPct counts the percentage of output words that differ, the
// metric of the k-means (cluster membership) and Dijkstra (min distance
// per node pair) kernels.
func MismatchPct(got, want []uint32) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return 100
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return float64(n) / float64(len(got)) * 100
}

// ---------------------------------------------------------------------
// helpers

// wordList renders values as .word directives, 8 per line, through one
// builder: a kernel's data section is thousands of words, and the bytes
// are hashed into every artifact key (core.System.BenchDigest), so they
// must not change.
func wordList(vals []uint32) string {
	var b strings.Builder
	b.Grow(13*len(vals) + 1)
	var num [8]byte
	for i, v := range vals {
		if i%8 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("\t.word ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString("0x")
		b.Write(strconv.AppendUint(num[:0], uint64(v), 16))
	}
	b.WriteByte('\n')
	return b.String()
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mulProfile returns a profile constraining the multiplier (and optionally
// adder/compare) operand widths.
func mulProfile(gen string) dta.Profile {
	return dta.Profile{circuit.UnitMul: gen}
}
