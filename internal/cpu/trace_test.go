package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// traceKernel exercises every recorded facet: ALU work inside and
// outside the FI window, stores of all three widths, a load-use hazard
// and a loop, with a verifiable accumulator output.
const traceKernel = `
	l.addi r1,r0,0       ; accumulator
	l.addi r2,r0,20      ; loop counter
	l.movhi r3,hi(buf)
	l.ori   r3,r3,lo(buf)
	l.sys 1
loop:
	l.add  r1,r1,r2
	l.sw   0(r3),r1
	l.sh   4(r3),r1
	l.sb   6(r3),r1
	l.lwz  r4,0(r3)
	l.addi r4,r4,1       ; load-use stall
	l.addi r2,r2,-1
	l.sfgtsi r2,0
	l.bf   loop
	l.sys 2
	l.sys 0
.data
buf: .space 16
`

func goldenTrace(t testing.TB, every uint64) (*CPU, *Trace, *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(traceKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(mem.New(), nil, DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	tr := c.StartTrace(every)
	c.SetWatchdog(1_000_000)
	c.Run()
	if got := c.StopTrace(); got != tr {
		t.Fatalf("StopTrace returned a different trace")
	}
	if c.Status() != StatusExited {
		t.Fatalf("golden run ended %v (%v)", c.Status(), c.TrapErr())
	}
	return c, tr, p
}

func TestTraceRecordsALUActivity(t *testing.T) {
	c, tr, _ := goldenTrace(t, 64)
	if uint64(len(tr.Events)) != c.KernelALUCycles {
		t.Errorf("recorded %d events, want one per kernel ALU cycle (%d)",
			len(tr.Events), c.KernelALUCycles)
	}
	if tr.Cycles != c.Cycles || tr.KernelCycles != c.KernelCycles ||
		tr.Retired != c.Retired || tr.Status != StatusExited {
		t.Errorf("trace totals %+v do not match the core", tr)
	}
	// 20 loop iterations x 3 stores.
	if len(tr.Stores) != 60 {
		t.Errorf("store log has %d entries, want 60", len(tr.Stores))
	}
	// The three store widths appear in order.
	if tr.Stores[0].Size != 4 || tr.Stores[1].Size != 2 || tr.Stores[2].Size != 1 {
		t.Errorf("store sizes %d,%d,%d want 4,2,1",
			tr.Stores[0].Size, tr.Stores[1].Size, tr.Stores[2].Size)
	}
	// First in-window ALU event is the first l.add: 0 + 20, previous
	// latch holds the last pre-window ALU result (the l.ori address
	// formation).
	ev := tr.Events[0]
	if ev.Op != isa.OpAdd || ev.Result != 20 {
		t.Errorf("first event %+v, want l.add r1,r1,r2 = 20", ev)
	}
	// Events record the argument tuple Inject receives: the Prev chain
	// must match the previous event's Result once inside the window
	// (between consecutive in-window ALU cycles no other ALU op runs in
	// this kernel).
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Prev != tr.Events[i-1].Result {
			t.Fatalf("event %d: Prev %#x does not chain from previous Result %#x",
				i, tr.Events[i].Prev, tr.Events[i-1].Result)
		}
	}
}

func TestTraceCheckpointCoverage(t *testing.T) {
	c, tr, _ := goldenTrace(t, 64)
	if len(tr.Checkpoints) < 3 {
		t.Fatalf("only %d checkpoints over %d cycles at interval 64", len(tr.Checkpoints), c.Cycles)
	}
	if cp := tr.Checkpoints[0]; cp.Cycles != 0 || cp.EventIndex != 0 || cp.StoreIndex != 0 {
		t.Errorf("first checkpoint %+v, want the reset state", cp)
	}
	for i := 1; i < len(tr.Checkpoints); i++ {
		prev, cur := tr.Checkpoints[i-1], tr.Checkpoints[i]
		if cur.Cycles <= prev.Cycles || cur.EventIndex < prev.EventIndex || cur.StoreIndex < prev.StoreIndex {
			t.Fatalf("checkpoint %d not monotone: %+v after %+v", i, cur, prev)
		}
		// Checkpoints land on the first instruction boundary at or after
		// each interval multiple, so consecutive ones may sit up to one
		// instruction's charge (1 + branch penalty) closer than the
		// interval.
		if cur.Cycles < prev.Cycles+64-4 {
			t.Errorf("checkpoints %d cycles apart, want about the 64-cycle interval", cur.Cycles-prev.Cycles)
		}
	}
	// CheckpointBefore picks the latest checkpoint not past the event.
	for _, k := range []int{0, 1, len(tr.Events) / 2, len(tr.Events) - 1} {
		cp := tr.CheckpointBefore(k)
		if cp == nil || cp.EventIndex > k {
			t.Fatalf("CheckpointBefore(%d) = %+v", k, cp)
		}
	}
}

// TestRestoreResumesExactly is the checkpoint fidelity guarantee: a core
// restored at any checkpoint and run to completion must be
// indistinguishable from the uninterrupted run — registers, memory
// outputs, and every cycle/retirement/access counter.
func TestRestoreResumesExactly(t *testing.T) {
	ref, tr, p := goldenTrace(t, 64)
	for i := range tr.Checkpoints {
		cp := &tr.Checkpoints[i]
		m := mem.New()
		c := New(m, nil, DefaultConfig())
		if err := c.Restore(p, tr, cp); err != nil {
			t.Fatalf("restore at checkpoint %d: %v", i, err)
		}
		c.SetWatchdog(1_000_000)
		if c.Run() != StatusExited {
			t.Fatalf("resumed run from checkpoint %d ended %v (%v)", i, c.Status(), c.TrapErr())
		}
		if c.Regs != ref.Regs || c.PC != ref.PC || c.Flag != ref.Flag {
			t.Errorf("checkpoint %d: architectural state diverged", i)
		}
		if c.Cycles != ref.Cycles || c.KernelCycles != ref.KernelCycles ||
			c.KernelALUCycles != ref.KernelALUCycles || c.Retired != ref.Retired {
			t.Errorf("checkpoint %d: counters diverged: cycles %d/%d retired %d/%d",
				i, c.Cycles, ref.Cycles, c.Retired, ref.Retired)
		}
		if c.OpCounts != ref.OpCounts {
			t.Errorf("checkpoint %d: op counts diverged", i)
		}
		if c.Mem.Loads != ref.Mem.Loads || c.Mem.Stores != ref.Mem.Stores {
			t.Errorf("checkpoint %d: access counters diverged", i)
		}
		gotBuf, err := c.Mem.ReadWords(p.Symbols["buf"], 2)
		if err != nil {
			t.Fatal(err)
		}
		wantBuf, err := ref.Mem.ReadWords(p.Symbols["buf"], 2)
		if err != nil {
			t.Fatal(err)
		}
		for j := range gotBuf {
			if gotBuf[j] != wantBuf[j] {
				t.Errorf("checkpoint %d: memory word %d = %#x, want %#x", i, j, gotBuf[j], wantBuf[j])
			}
		}
	}
}

// TestRestoreMidWindowInjection restores inside the FI window and checks
// that an injector sees the same latch state a full run would: the first
// query after the restore point receives the Prev value the trace
// recorded for that event.
func TestRestoreMidWindowInjection(t *testing.T) {
	_, tr, p := goldenTrace(t, 64)
	// Pick a checkpoint strictly inside the event stream.
	var cp *Checkpoint
	for i := range tr.Checkpoints {
		if c := &tr.Checkpoints[i]; c.EventIndex > 0 && c.EventIndex < len(tr.Events) {
			cp = c
			break
		}
	}
	if cp == nil {
		t.Skip("no mid-stream checkpoint at this interval")
	}
	var seen []TraceEvent
	probe := injFunc(func(op isa.Op, r, prev uint32, f, pf bool) (uint32, bool, int) {
		seen = append(seen, TraceEvent{Op: op, Result: r, Prev: prev, Flag: f, PrevFlag: pf})
		return r, f, 0
	})
	c := New(mem.New(), probe, DefaultConfig())
	if err := c.Restore(p, tr, cp); err != nil {
		t.Fatal(err)
	}
	c.SetWatchdog(1_000_000)
	c.Run()
	rest := tr.Events[cp.EventIndex:]
	if len(seen) != len(rest) {
		t.Fatalf("resumed run issued %d queries, trace has %d after the checkpoint", len(seen), len(rest))
	}
	for i := range seen {
		want := TraceEvent{Op: rest[i].Op, Result: rest[i].Result, Prev: rest[i].Prev,
			Flag: rest[i].Flag, PrevFlag: rest[i].PrevFlag}
		if seen[i] != want {
			t.Fatalf("query %d after restore: got %+v, want %+v", i, seen[i], want)
		}
	}
}
