package bench

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/dta"
)

// Checksum kernel geometry. Phase 1 whitens ChecksumWords words with a
// fully unrolled logic-only sequence (load, xor, rotate via shifts and
// or, store — no adds or compares, so no low-onset ALU queries), and
// phase 2 folds the first ChecksumSumWords of them into one additive
// checksum with a tight compare-terminated loop. Under a
// frequency-dependent model the two phases fail at very different
// frequencies: logic and shifter paths hold to ~930+ MHz while the
// adder and comparator give way around ~790, so an operating point
// between the two concentrates every first fault in the short terminal
// phase — thousands of cycles past the last checkpoint. That makes the
// kernel the stress case for batched fault-trial execution (the shared
// golden prefix is long and the per-trial remainder short), and the
// benchmark the batched-execution gate in scripts/gates.sh builds on.
const (
	ChecksumWords    = 1024
	ChecksumSumWords = 96
	checksumKey      = 0x9e3779b9 // golden-ratio whitening constant
)

// Checksum returns the two-phase whiten-then-fold kernel. It is not
// part of All() (Table 1 fixtures iterate the paper's application
// kernels) but is reachable by name like the microkernels.
func Checksum() *Benchmark {
	return &Benchmark{
		Name:       "checksum",
		MetricName: "output mismatch",
		// The folding loop compares the 32-bit loop counter; whitening
		// exercises logic/shift units, which the default profile covers.
		Profile:     dta.Profile{circuit.UnitCompare: "u32"},
		OutSymbol:   "out",
		OutWords:    1,
		Metric:      MismatchPct,
		QualityName: "bit-exactness",
		Build:       buildChecksum,
	}
}

func buildChecksum(seed int64) (string, []uint32, error) {
	r := rng(seed)
	vals := make([]uint32, ChecksumWords)
	for i := range vals {
		vals[i] = r.Uint32()
	}

	// Bit-exact golden model: whiten every word, fold the first
	// ChecksumSumWords of the whitened buffer.
	whiten := func(v uint32) uint32 {
		x := v ^ checksumKey
		return x<<3 | x>>29
	}
	var sum uint32
	for i := 0; i < ChecksumSumWords; i++ {
		sum += whiten(vals[i])
	}
	want := []uint32{sum}

	var b strings.Builder
	fmt.Fprintf(&b, "; two-phase checksum: whiten %d words (unrolled, logic/shift only), fold %d\n",
		ChecksumWords, ChecksumSumWords)
	b.WriteString("\tl.movhi r1,hi(buf)\n")
	b.WriteString("\tl.ori   r1,r1,lo(buf)\n")
	fmt.Fprintf(&b, "\tl.movhi r2,0x%x\n", checksumKey>>16)
	fmt.Fprintf(&b, "\tl.ori   r2,r2,0x%x\n", checksumKey&0xffff)
	b.WriteString("\tl.sys 1                 ; open FI window\n")
	// Phase 1: no loop counter, no compares — every iteration is spelled
	// out with an immediate offset so the only ALU queries are the
	// high-onset logic and shift ops.
	for i := 0; i < ChecksumWords; i++ {
		off := 4 * i
		fmt.Fprintf(&b, "\tl.lwz  r5,%d(r1)\n", off)
		b.WriteString("\tl.xor  r5,r5,r2\n")
		b.WriteString("\tl.slli r6,r5,3\n")
		b.WriteString("\tl.srli r7,r5,29\n")
		b.WriteString("\tl.or   r5,r6,r7\n")
		fmt.Fprintf(&b, "\tl.sw   %d(r1),r5\n", off)
	}
	// Phase 2: the short folding loop — adds and a compare per
	// iteration, the kernel's only low-onset queries.
	fmt.Fprintf(&b, `	l.addi r3,r0,0          ; i = 0
	l.add  r4,r0,r0         ; sum = 0
	l.add  r9,r1,r0         ; p = &buf[0]
fold:
	l.lwz  r5,0(r9)
	l.add  r4,r4,r5
	l.addi r9,r9,4
	l.addi r3,r3,1
	l.sfltsi r3,%d
	l.bf   fold
	l.sys 2                 ; close FI window
	l.movhi r8,hi(out)
	l.ori   r8,r8,lo(out)
	l.sw   0(r8),r4
	l.sys 0
.data
out:
	.word 0
buf:
`, ChecksumSumWords)
	b.WriteString(wordList(vals))
	return b.String(), want, nil
}
