package bench

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// runGolden assembles and executes a benchmark fault-free, returning the
// core and the extracted outputs.
func runGolden(t *testing.T, b *Benchmark, seed int64) (*cpu.CPU, []uint32, []uint32) {
	t.Helper()
	src, want, err := b.Build(seed)
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name, err)
	}
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", b.Name, err)
	}
	m := mem.New()
	c := cpu.New(m, nil, cpu.DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatalf("%s: load: %v", b.Name, err)
	}
	c.SetWatchdog(50_000_000)
	if st := c.Run(); st != cpu.StatusExited {
		t.Fatalf("%s: status %v (%v) after %d cycles", b.Name, st, c.TrapErr(), c.Cycles)
	}
	got, err := b.Outputs(m, p)
	if err != nil {
		t.Fatalf("%s: outputs: %v", b.Name, err)
	}
	return c, got, want
}

func TestAllBenchmarksMatchGolden(t *testing.T) {
	for _, b := range append(append(All(), Micros()...), Extras()...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, got, want := runGolden(t, b, 42)
			if len(got) != len(want) {
				t.Fatalf("output length %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output[%d] = %#x, want %#x", i, got[i], want[i])
				}
			}
			if m := b.Metric(got, want); m != 0 {
				t.Errorf("fault-free metric = %v, want 0", m)
			}
			if c.KernelCycles == 0 {
				t.Errorf("kernel window never opened")
			}
		})
	}
}

func TestKernelCyclesNearPaper(t *testing.T) {
	// Table 1 reproduction: kernel cycle counts should be in the same
	// ballpark as the paper's (within 2x; exact counts depend on the
	// compiler and pipeline details we do not copy).
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, _, _ := runGolden(t, b, 42)
			kc := float64(c.KernelCycles) / 1000
			if kc < b.PaperKCycles/2 || kc > b.PaperKCycles*2 {
				t.Errorf("kernel kCycles = %.0f, paper reports %.0f (want within 2x)",
					kc, b.PaperKCycles)
			}
			t.Logf("%s: %.0f kCycles (paper %.0f)", b.Name, kc, b.PaperKCycles)
		})
	}
}

func TestBenchmarkCharacter(t *testing.T) {
	// The compute/control split of Table 1: matmul is multiplication
	// heavy, median and dijkstra are compare/branch heavy with no
	// multiplies in the kernel... (k-means sits in between).
	mix := func(name string) (mulFrac, cmpFrac float64) {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, _, _ := runGolden(t, b, 42)
		m := c.Mix()
		return float64(m.Mul) / float64(m.Total), float64(m.Compare) / float64(m.Total)
	}
	matMul, _ := mix("mat_mult_16bit")
	medMul, medCmp := mix("median")
	dijMul, dijCmp := mix("dijkstra")
	kmMul, _ := mix("kmeans")
	if matMul < 0.04 {
		t.Errorf("matmul mul fraction %.3f too low", matMul)
	}
	if medMul != 0 || dijMul != 0 {
		t.Errorf("control kernels contain multiplies: median %.3f dijkstra %.3f", medMul, dijMul)
	}
	if medCmp < 0.10 || dijCmp < 0.10 {
		t.Errorf("control kernels light on compares: median %.3f dijkstra %.3f", medCmp, dijCmp)
	}
	if kmMul <= 0 || kmMul >= matMul {
		t.Errorf("k-means mul fraction %.4f not between control and matmul %.4f", kmMul, matMul)
	}
}

func TestMicroPerTrialInputsDiffer(t *testing.T) {
	b := MicroAdd32()
	s1, w1, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, w2, err := b.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Errorf("different seeds produced identical sources")
	}
	same := true
	for i := range w1 {
		if w1[i] != w2[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical outputs")
	}
	if !b.PerTrialInputs {
		t.Errorf("micro kernels must regenerate inputs per trial")
	}
}

func TestMetrics(t *testing.T) {
	if got := RelativeErrorPct([]uint32{110}, []uint32{100}); got != 10 {
		t.Errorf("relative error = %v, want 10", got)
	}
	if got := RelativeErrorPct([]uint32{0}, []uint32{0}); got != 0 {
		t.Errorf("0/0 relative error = %v", got)
	}
	if got := RelativeErrorPct([]uint32{5}, []uint32{0}); got != 100 {
		t.Errorf("x/0 relative error = %v", got)
	}
	if got := RelativeErrorPct([]uint32{1000000}, []uint32{1}); got != 100 {
		t.Errorf("relative error must cap at 100, got %v", got)
	}
	if got := MSEMetric([]uint32{1, 2}, []uint32{1, 4}); got != 2 {
		t.Errorf("MSE = %v, want 2", got)
	}
	if got := MismatchPct([]uint32{1, 2, 3, 4}, []uint32{1, 0, 3, 0}); got != 50 {
		t.Errorf("mismatch = %v, want 50", got)
	}
}

// TestChecksumPhases pins the checksum kernel's two-phase shape: the
// trailing fold is the only source of adder/comparator queries, it is
// short, and it starts thousands of cycles past the last checkpoint
// boundary — the geometry the batched-execution benchmark relies on.
func TestChecksumPhases(t *testing.T) {
	b := Checksum()
	src, _, err := b.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	c := cpu.New(m, nil, cpu.DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	tr := c.StartTrace(0)
	c.SetWatchdog(50_000_000)
	if st := c.Run(); st != cpu.StatusExited {
		t.Fatalf("status %v after %d cycles", st, c.Cycles)
	}
	var firstAdd, lastQuery int
	for i, ev := range tr.Events {
		switch ev.Op {
		case isa.OpAdd, isa.OpAddi, isa.OpSub:
			if firstAdd == 0 {
				firstAdd = i
			}
		case isa.OpXor, isa.OpSlli, isa.OpSrli, isa.OpOr:
		default:
			if !isa.IsCompare(ev.Op) {
				t.Fatalf("unexpected query op %v at %d", ev.Op, i)
			}
			if firstAdd == 0 {
				t.Fatalf("compare query at %d before the fold phase", i)
			}
		}
		lastQuery = i
	}
	if firstAdd == 0 {
		t.Fatal("no adder queries recorded")
	}
	// All low-onset queries live in the trailing fold phase...
	if frac := float64(lastQuery-firstAdd) / float64(len(tr.Events)); frac > 0.15 {
		t.Errorf("fold phase spans %.0f%% of the queries, want a short tail", frac*100)
	}
	// ...which starts well past the last checkpoint before it.
	cp := tr.CheckpointBefore(firstAdd)
	if cp.EventIndex == 0 && len(tr.Checkpoints) > 1 {
		t.Errorf("fold phase not past the first checkpoint boundary (ckpt event %d, fold at %d)",
			cp.EventIndex, firstAdd)
	}
	if gap := firstAdd - cp.EventIndex; gap < 1000 {
		t.Errorf("fold starts only %d queries past its checkpoint; want a long shared prefix", gap)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("median"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("micro_mul_16bit"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("unknown name must error")
	}
}

// TestWordListSpelling pins the data-section rendering byte for byte:
// the generated source is hashed into every golden, hazard and cell
// key, so a rendering change that alters a single byte would silently
// orphan every stored artifact. Lengths straddle the 8-per-line wrap;
// the values are the shortest and longest hex spellings.
func TestWordListSpelling(t *testing.T) {
	const row = "0x0, 0xffffffff, 0x0, 0xffffffff, 0x0, 0xffffffff, 0x0, 0xffffffff"
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "\n"},
		{1, "\t.word 0x0\n"},
		{7, "\t.word 0x0, 0xffffffff, 0x0, 0xffffffff, 0x0, 0xffffffff, 0x0\n"},
		{8, "\t.word " + row + "\n"},
		{9, "\t.word " + row + "\n\t.word 0x0\n"},
		{17, "\t.word " + row + "\n\t.word " + row + "\n\t.word 0x0\n"},
	} {
		vals := make([]uint32, tc.n)
		for i := 1; i < tc.n; i += 2 {
			vals[i] = 0xffffffff
		}
		if got := wordList(vals); got != tc.want {
			t.Errorf("wordList(%d words) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
