package cpu

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/mem"
)

// walkerBenches are the kernels FuzzWalkerFastForward walks: the
// paper's application kernels plus the store-heavy checksum.
var walkerBenches = append(bench.All(), bench.Extras()...)

// walkerEvery is the recording interval of the fuzzed traces: short, so
// that rising targets cross many checkpoints and each fast-forward
// replays a stretch of the store log.
const walkerEvery = 512

type walkerTrace struct {
	once sync.Once
	p    *asm.Program
	tr   *Trace
	err  error
}

var walkerTraces = make([]walkerTrace, len(walkerBenches))

// benchTrace records (once per process) the golden trace of walker
// kernel i at input seed 42.
func benchTrace(i int) (*asm.Program, *Trace, error) {
	wt := &walkerTraces[i]
	wt.once.Do(func() {
		b := walkerBenches[i]
		src, _, err := b.Build(42)
		if err != nil {
			wt.err = err
			return
		}
		if wt.p, wt.err = asm.Assemble(src); wt.err != nil {
			return
		}
		c := New(mem.New(), nil, DefaultConfig())
		if wt.err = c.Load(wt.p); wt.err != nil {
			return
		}
		c.StartTrace(walkerEvery)
		c.SetWatchdog(100_000_000)
		if st := c.Run(); st != StatusExited {
			wt.err = fmt.Errorf("%s: golden run ended %v", b.Name, st)
			return
		}
		wt.tr = c.StopTrace()
	})
	return wt.p, wt.tr, wt.err
}

// walkerDiff names the first difference between two golden cores —
// every CPU field (registers, PC, flags, latches, counters, text, the
// watchdog) and the whole memory image with its access counters — or
// returns "".
func walkerDiff(a, b *CPU) string {
	ac, bc := *a, *b
	ac.Mem, bc.Mem = nil, nil
	switch {
	case !reflect.DeepEqual(ac, bc):
		return fmt.Sprintf("state\n got %+v\nwant %+v", ac, bc)
	case !reflect.DeepEqual(a.Mem, b.Mem):
		return "memory"
	}
	return ""
}

// walkFastForward walks one golden walker over rising query targets the
// way the batched trial path does — Restore at the checkpoint before
// the first target, then per target a FastForward to the checkpoint
// before it when that lies ahead, and RunToQuery — and compares it at
// every target with a fresh core Restored at the checkpoint before the
// target and run to it. steps is read two bytes at a time as target
// increments of up to an eighth of the trace. A nonzero skew shifts the
// walker's store-log cursor at each fast-forward (within the log), the
// mutation the comparison must catch. It returns the number of
// fast-forwards taken and the first divergence.
func walkFastForward(p *asm.Program, tr *Trace, steps []byte, skew int) (int, error) {
	n := len(tr.Events)
	var targets []int
	for k := 0; len(steps) >= 2 && len(targets) < 16; steps = steps[2:] {
		k += int(binary.BigEndian.Uint16(steps)) * (n/8 + 1) / 65536
		if k >= n {
			break
		}
		targets = append(targets, k)
	}
	if len(targets) == 0 {
		return 0, nil
	}
	const watchdog = 100_000_000
	w := New(mem.New(), nil, DefaultConfig())
	if err := w.Restore(p, tr, tr.CheckpointBefore(targets[0])); err != nil {
		return 0, err
	}
	w.SetWatchdog(watchdog)
	jumps := 0
	for _, k := range targets {
		if cp := tr.CheckpointBefore(k); cp.Cycles > w.Cycles {
			var err error
			if cursor := w.storeCursor(cp) + skew; skew != 0 && cursor >= 0 && cursor <= cp.StoreIndex {
				err = w.fastForward(tr, cursor, cp)
			} else {
				err = w.FastForward(tr, cp)
			}
			if err != nil {
				return jumps, fmt.Errorf("query %d: %v", k, err)
			}
			jumps++
		}
		if st := w.RunToQuery(uint64(k)); st != StatusRunning {
			return jumps, fmt.Errorf("query %d: walker ended %v", k, st)
		}
		ref := New(mem.New(), nil, DefaultConfig())
		if err := ref.Restore(p, tr, tr.CheckpointBefore(k)); err != nil {
			return jumps, err
		}
		ref.SetWatchdog(watchdog)
		if st := ref.RunToQuery(uint64(k)); st != StatusRunning {
			return jumps, fmt.Errorf("query %d: reference ended %v", k, st)
		}
		if d := walkerDiff(w, ref); d != "" {
			return jumps, fmt.Errorf("query %d: walker diverged from a fresh restore: %s", k, d)
		}
	}
	return jumps, nil
}

// walkerSeeds is FuzzWalkerFastForward's seed corpus: for every kernel,
// a dense walk (small steps, mostly within one interval), a sparse one
// (large steps, a fast-forward per target) and repeated targets.
func walkerSeeds() []walkerSeed {
	var seeds []walkerSeed
	for i := range walkerBenches {
		pick := uint8(i)
		seeds = append(seeds,
			walkerSeed{pick, []byte{0, 0, 0, 40, 0, 40, 1, 0, 0, 0, 2, 0}},
			walkerSeed{pick, []byte{0x20, 0, 0xff, 0xff, 0x80, 0, 0xff, 0xff, 0x40, 0, 0xff, 0xff, 0x10, 0}},
			walkerSeed{pick, []byte{0x50, 0, 0, 0, 0, 0, 0x50, 0, 0, 0}},
		)
	}
	return seeds
}

type walkerSeed struct {
	pick  uint8
	steps []byte
}

// FuzzWalkerFastForward pins CPU.FastForward, the walker jump of the
// batched trial path: the input picks a benchmark's golden trace and
// rising query targets, and at every target the fast-forwarded walker
// must equal a fresh Restore run to the same query — registers, PC,
// flags, latches, every counter and every memory byte.
func FuzzWalkerFastForward(f *testing.F) {
	for _, s := range walkerSeeds() {
		f.Add(s.pick, s.steps)
	}
	f.Fuzz(func(t *testing.T, pick uint8, steps []byte) {
		p, tr, err := benchTrace(int(pick) % len(walkerBenches))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := walkFastForward(p, tr, steps, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWalkerFastForwardCatchesSkippedStore is the fuzzer's mutation
// check: a walker whose store-log cursor runs one entry ahead skips a
// store at each fast-forward, and the seed corpus must notice on every
// kernel. (A cursor one entry behind replays a store memory already
// holds, which rewrites the same bytes and is harmless.)
func TestWalkerFastForwardCatchesSkippedStore(t *testing.T) {
	caught := make([]bool, len(walkerBenches))
	for _, s := range walkerSeeds() {
		i := int(s.pick)
		p, tr, err := benchTrace(i)
		if err != nil {
			t.Fatal(err)
		}
		jumps, err := walkFastForward(p, tr, s.steps, 0)
		if err != nil {
			t.Fatalf("%s: unmutated walk: %v", walkerBenches[i].Name, err)
		}
		if jumps == 0 {
			continue
		}
		if _, err := walkFastForward(p, tr, s.steps, 1); err != nil {
			caught[i] = true
		}
	}
	for i, ok := range caught {
		if !ok {
			t.Errorf("%s: skipping one store-log entry per fast-forward went unnoticed", walkerBenches[i].Name)
		}
	}
}
