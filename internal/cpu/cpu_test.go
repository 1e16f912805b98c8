package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Status returns how the last run ended.
func (c *CPU) Status() Status { return c.status }

func run(t *testing.T, src string, inj Injector) *CPU {
	t.Helper()
	c := load(t, src, inj)
	c.SetWatchdog(1_000_000)
	c.Run()
	return c
}

func load(t *testing.T, src string, inj Injector) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(mem.New(), inj, DefaultConfig())
	if err := c.Load(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
		l.addi r1,r0,7
		l.addi r2,r0,5
		l.add  r3,r1,r2
		l.sub  r4,r1,r2
		l.mul  r5,r1,r2
		l.addi r6,r0,-3
		l.mul  r7,r1,r6
		l.sys 0
	`, nil)
	if c.Status() != StatusExited {
		t.Fatalf("status %v (%v)", c.Status(), c.TrapErr())
	}
	if c.Regs[3] != 12 || c.Regs[4] != 2 || c.Regs[5] != 35 {
		t.Errorf("r3=%d r4=%d r5=%d", c.Regs[3], c.Regs[4], c.Regs[5])
	}
	if int32(c.Regs[7]) != -21 {
		t.Errorf("signed mul r7=%d", int32(c.Regs[7]))
	}
}

func TestLogicAndShift(t *testing.T) {
	c := run(t, `
		l.movhi r1,0xF0F0
		l.ori   r1,r1,0x1234
		l.andi  r2,r1,0xFF00
		l.xori  r3,r2,0x00FF
		l.slli  r4,r3,4
		l.srli  r5,r1,16
		l.addi  r6,r0,-16
		l.srai  r7,r6,2
		l.addi  r8,r0,3
		l.sll   r10,r8,r8
		l.sys 0
	`, nil)
	if c.Regs[2] != 0x1200 {
		t.Errorf("andi r2=%x", c.Regs[2])
	}
	if c.Regs[3] != 0x12FF {
		t.Errorf("xori r3=%x", c.Regs[3])
	}
	if c.Regs[4] != 0x12FF0 {
		t.Errorf("slli r4=%x", c.Regs[4])
	}
	if c.Regs[5] != 0xF0F0 {
		t.Errorf("srli r5=%x", c.Regs[5])
	}
	if int32(c.Regs[7]) != -4 {
		t.Errorf("srai r7=%d", int32(c.Regs[7]))
	}
	if c.Regs[10] != 24 {
		t.Errorf("sll r10=%d", c.Regs[10])
	}
}

func TestR0Hardwired(t *testing.T) {
	c := run(t, `
		l.addi r0,r0,99
		l.add  r1,r0,r0
		l.sys 0
	`, nil)
	if c.Regs[0] != 0 || c.Regs[1] != 0 {
		t.Errorf("r0 not hardwired: r0=%d r1=%d", c.Regs[0], c.Regs[1])
	}
}

func TestComparesAndBranches(t *testing.T) {
	c := run(t, `
		l.addi r1,r0,10
		l.addi r2,r0,0
	loop:
		l.add  r2,r2,r1
		l.addi r1,r1,-1
		l.sfgtsi r1,0
		l.bf   loop
		l.sys 0
	`, nil)
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
}

func TestSignedVsUnsignedCompare(t *testing.T) {
	c := run(t, `
		l.addi r1,r0,-1      ; 0xFFFFFFFF
		l.addi r2,r0,1
		l.sfgts r1,r2        ; signed: -1 > 1 is false
		l.bf   signedwrong
		l.sfgtu r1,r2        ; unsigned: max > 1 is true
		l.bf   ok
		l.j    unsignedwrong
	signedwrong:
		l.addi r3,r0,1
		l.sys 0
	unsignedwrong:
		l.addi r3,r0,2
		l.sys 0
	ok:
		l.addi r3,r0,42
		l.sys 0
	`, nil)
	if c.Regs[3] != 42 {
		t.Errorf("compare semantics wrong, r3=%d", c.Regs[3])
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
		l.movhi r1,hi(buf)
		l.ori   r1,r1,lo(buf)
		l.addi  r2,r0,0x1234
		l.sw    0(r1),r2
		l.lwz   r3,0(r1)
		l.sh    4(r1),r2
		l.lhz   r4,4(r1)
		l.sb    8(r1),r2
		l.lbz   r5,8(r1)
		l.sys 0
	.data
	buf: .space 16
	`, nil)
	if c.Regs[3] != 0x1234 || c.Regs[4] != 0x1234 || c.Regs[5] != 0x34 {
		t.Errorf("r3=%x r4=%x r5=%x", c.Regs[3], c.Regs[4], c.Regs[5])
	}
}

func TestJalAndJr(t *testing.T) {
	c := run(t, `
		l.jal  fn
		l.addi r2,r0,1    ; return lands here
		l.sys 0
	fn:
		l.addi r1,r0,7
		l.jr   r9
	`, nil)
	if c.Regs[1] != 7 || c.Regs[2] != 1 {
		t.Errorf("call sequence wrong: r1=%d r2=%d", c.Regs[1], c.Regs[2])
	}
}

func TestBusErrorTrap(t *testing.T) {
	c := run(t, `
		l.movhi r1,0xFFFF
		l.lwz   r2,0(r1)
		l.sys 0
	`, nil)
	if c.Status() != StatusTrapped {
		t.Fatalf("status %v, want trapped", c.Status())
	}
	if c.TrapErr() == nil || !strings.Contains(c.TrapErr().Error(), "out of range") {
		t.Errorf("trap err %v", c.TrapErr())
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	// Jump into the data section, which holds a word that decodes to
	// nothing valid.
	c := run(t, `
		l.movhi r1,hi(bad)
		l.ori   r1,r1,lo(bad)
		l.jr    r1
	.data
	bad: .word 0xFFFFFFFF
	`, nil)
	if c.Status() != StatusTrapped {
		t.Fatalf("status %v, want trapped", c.Status())
	}
}

func TestWatchdog(t *testing.T) {
	c := load(t, `
	spin:
		l.addi r1,r1,1
		l.j spin
	`, nil)
	c.SetWatchdog(5000)
	c.Run()
	if c.Status() != StatusWatchdog {
		t.Fatalf("status %v, want watchdog", c.Status())
	}
	if c.Cycles < 5000 {
		t.Errorf("cycles %d below watchdog", c.Cycles)
	}
}

// TestWatchdogExactBoundary pins the cycle-budget boundary semantics:
// the budget is checked at instruction entry against the cycles already
// charged, so a program whose final instruction enters at cycle W-1
// completes under budget W, while budget W-1 kills it on that entry
// with the cycle counter frozen at the budget value.
func TestWatchdogExactBoundary(t *testing.T) {
	// Straight-line: 3 addi + sys = 4 cycles; entries at 0,1,2,3.
	src := `
		l.addi r1,r0,1
		l.addi r2,r0,2
		l.add  r3,r1,r2
		l.sys 0
	`
	c := load(t, src, nil)
	c.SetWatchdog(4)
	if c.Run() != StatusExited {
		t.Errorf("budget == total cycles: status %v, want exited", c.Status())
	}
	if c.Cycles != 4 {
		t.Errorf("budget == total cycles: ran %d cycles, want 4", c.Cycles)
	}
	c = load(t, src, nil)
	c.SetWatchdog(3)
	if c.Run() != StatusWatchdog {
		t.Errorf("budget == total-1: status %v, want watchdog", c.Status())
	}
	if c.Cycles != 3 {
		t.Errorf("watchdog froze the counter at %d, want exactly 3", c.Cycles)
	}
	// A 1+4-cycle spin loop has entries at 0,1 (mod 5); a budget on a
	// multiple of 5 is hit exactly, never overshot.
	c = load(t, `
	spin:
		l.addi r1,r1,1
		l.j spin
	`, nil)
	c.SetWatchdog(5000)
	if c.Run() != StatusWatchdog {
		t.Fatalf("status %v, want watchdog", c.Status())
	}
	if c.Cycles != 5000 {
		t.Errorf("spin loop caught at %d cycles, want exactly the 5000 budget", c.Cycles)
	}
}

// TestSelfJumpDetectedWithoutBudget pins that the trivial infinite-loop
// detection does not depend on the cycle budget: an unconditional
// jump-to-self aborts immediately even with the watchdog disabled.
func TestSelfJumpDetectedWithoutBudget(t *testing.T) {
	c := load(t, `
	self:
		l.j self
	`, nil)
	c.SetWatchdog(0)
	if c.Run() != StatusWatchdog {
		t.Fatalf("status %v, want watchdog (self-jump, no budget)", c.Status())
	}
	if c.Cycles > 10 {
		t.Errorf("self-jump with no budget ran %d cycles before detection", c.Cycles)
	}
}

func TestSelfJumpDetection(t *testing.T) {
	c := load(t, `
	self:
		l.j self
	`, nil)
	c.SetWatchdog(1 << 30)
	c.Run()
	if c.Status() != StatusWatchdog {
		t.Fatalf("status %v, want watchdog (self-jump)", c.Status())
	}
	if c.Cycles > 100 {
		t.Errorf("self-jump not detected early (%d cycles)", c.Cycles)
	}
}

func TestCycleAccounting(t *testing.T) {
	// Straight-line: 4 instructions, no hazards -> 4 cycles.
	c := run(t, `
		l.addi r1,r0,1
		l.addi r2,r0,2
		l.add  r3,r1,r2
		l.sys 0
	`, nil)
	if c.Cycles != 4 {
		t.Errorf("straight-line cycles = %d, want 4", c.Cycles)
	}

	// A taken jump costs 1 + branch penalty.
	c = run(t, `
		l.j over
		l.nop
	over:
		l.sys 0
	`, nil)
	want := uint64(1+DefaultConfig().BranchPenalty) + 1
	if c.Cycles != want {
		t.Errorf("taken-jump cycles = %d, want %d", c.Cycles, want)
	}

	// Load-use hazard adds one stall.
	c = run(t, `
		l.movhi r1,hi(v)
		l.ori   r1,r1,lo(v)
		l.lwz   r2,0(r1)
		l.addi  r3,r2,1
		l.sys 0
	.data
	v: .word 5
	`, nil)
	if c.Cycles != 6 {
		t.Errorf("load-use cycles = %d, want 6", c.Cycles)
	}

	// Independent instruction after load: no stall.
	c = run(t, `
		l.movhi r1,hi(v)
		l.ori   r1,r1,lo(v)
		l.lwz   r2,0(r1)
		l.addi  r3,r1,1
		l.sys 0
	.data
	v: .word 5
	`, nil)
	if c.Cycles != 5 {
		t.Errorf("independent-after-load cycles = %d, want 5", c.Cycles)
	}
}

func TestKernelWindow(t *testing.T) {
	c := run(t, `
		l.addi r1,r0,1
		l.sys 1          ; open FI window
		l.addi r2,r0,2
		l.add  r3,r1,r2
		l.sys 2          ; close FI window
		l.addi r4,r0,4
		l.sys 0
	`, nil)
	// Window covers: the sys 1 itself does not count (window opens
	// after it), then addi, add, and sys 2's cycle.
	if c.KernelCycles != 3 {
		t.Errorf("kernel cycles = %d, want 3", c.KernelCycles)
	}
	if c.KernelALUCycles != 2 {
		t.Errorf("kernel ALU cycles = %d, want 2", c.KernelALUCycles)
	}
}

// maskInjector flips a fixed mask on every eligible cycle.
type maskInjector struct {
	mask  uint32
	flag  bool
	calls int
	ops   []isa.Op
}

func (m *maskInjector) Inject(op isa.Op, r, _ uint32, f, _ bool) (uint32, bool, int) {
	m.calls++
	m.ops = append(m.ops, op)
	n := 0
	for b := m.mask; b != 0; b &= b - 1 {
		n++
	}
	out := r ^ m.mask
	of := f
	if m.flag {
		of = !f
		n++
	}
	return out, of, n
}

func TestInjectionOnlyInWindowAndOnALU(t *testing.T) {
	inj := &maskInjector{mask: 1}
	c := run(t, `
		l.addi r1,r0,5    ; outside window: no FI
		l.sys 1
		l.addi r2,r0,5    ; FI flips bit 0 -> 4
		l.lwz  r3,0(r0)   ; load: never FI  (address 0 is valid imem)
		l.movhi r4,1      ; movhi: not ALU class
		l.sys 2
		l.addi r5,r0,5    ; outside again
		l.sys 0
	`, inj)
	if c.Status() != StatusExited {
		t.Fatalf("status %v (%v)", c.Status(), c.TrapErr())
	}
	if c.Regs[1] != 5 || c.Regs[5] != 5 {
		t.Errorf("FI leaked outside window: r1=%d r5=%d", c.Regs[1], c.Regs[5])
	}
	if c.Regs[2] != 4 {
		t.Errorf("FI not applied in window: r2=%d, want 4", c.Regs[2])
	}
	if inj.calls != 1 {
		t.Errorf("injector called %d times (%v), want 1", inj.calls, inj.ops)
	}
	if c.FIBits != 1 || c.FIEvents != 1 {
		t.Errorf("FI counters bits=%d events=%d", c.FIBits, c.FIEvents)
	}
}

func TestFlagInjectionChangesBranch(t *testing.T) {
	inj := &maskInjector{flag: true}
	c := run(t, `
		l.sys 1
		l.addi r1,r0,1     ; result also gets no mask (mask=0) but counts? mask 0 flips nothing
		l.sfeqi r1,1       ; true, but flag endpoint flipped -> false
		l.sys 2
		l.bf  equal
		l.addi r2,r0,111
		l.sys 0
	equal:
		l.addi r2,r0,222
		l.sys 0
	`, inj)
	if c.Regs[2] != 111 {
		t.Errorf("flag fault did not redirect branch: r2=%d", c.Regs[2])
	}
}

func TestMixAndRetired(t *testing.T) {
	c := run(t, `
		l.addi r1,r0,3
		l.mul  r2,r1,r1
		l.sfeqi r2,9
		l.bf ok
	ok:
		l.lwz r3,0(r0)
		l.sys 0
	`, nil)
	m := c.Mix()
	if m.Mul != 1 || m.Compare != 1 || m.Memory != 1 || m.Control != 1 {
		t.Errorf("mix %+v", m)
	}
	if c.Retired != 6 {
		t.Errorf("retired %d, want 6", c.Retired)
	}
}

func TestStaleCaptureSemanticsPlumbing(t *testing.T) {
	// Verify prevResult plumbing: an injector that returns the previous
	// latch value should observe the prior ALU result.
	var seenPrev []uint32
	inj := injFunc(func(op isa.Op, r, prev uint32, f, pf bool) (uint32, bool, int) {
		seenPrev = append(seenPrev, prev)
		return r, f, 0
	})
	run(t, `
		l.sys 1
		l.addi r1,r0,11
		l.addi r2,r0,22
		l.sys 2
		l.sys 0
	`, inj)
	if len(seenPrev) != 2 {
		t.Fatalf("injector called %d times", len(seenPrev))
	}
	if seenPrev[1] != 11 {
		t.Errorf("prev latch = %d, want 11", seenPrev[1])
	}
}

type injFunc func(isa.Op, uint32, uint32, bool, bool) (uint32, bool, int)

func (f injFunc) Inject(op isa.Op, r, p uint32, fl, pf bool) (uint32, bool, int) {
	return f(op, r, p, fl, pf)
}
