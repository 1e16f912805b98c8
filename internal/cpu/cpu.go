// Package cpu implements the cycle-accurate instruction-set simulator of
// the 32-bit, 6-stage OpenRISC-flavoured core used as the paper's case
// study, together with the fault-injection port on the execution-stage ALU
// endpoints.
//
// # Timing model
//
// The pipeline (IF1 IF2 ID EX MEM WB) is in-order and single-issue with
// full forwarding, so architectural execution at EX time is semantically
// identical to latch-level simulation; the simulator therefore executes
// instructions functionally in program order and charges cycles according
// to the pipeline timing rules:
//
//   - one cycle per issued instruction (close to 1 IPC, like the paper's
//     core, which performs single-cycle 32-bit multiplications),
//   - a configurable flush penalty for taken branches and jumps (the three
//     fetch/decode stages behind EX are squashed),
//   - a one-cycle stall for a load immediately followed by a consumer
//     (load data is available at the end of MEM).
//
// Every cycle in which an FI-eligible ALU instruction occupies EX while
// the fault-injection window is open is exposed to the Injector, which may
// corrupt the 32 ALU result endpoints and, for compares, the flag
// endpoint. This is exactly the surface the paper injects into: the 32
// ALU-endpoint flip-flops of the execution stage (we group the
// comparison-flag flop, which is produced by the same data path, with
// them; without it, faulted compares would have no architectural effect
// and the paper's "wrong branching behavior" could not occur).
//
// # Abnormal termination
//
// A run ends in one of three ways: a clean exit (l.sys 0), a trap
// (illegal instruction, bus error, fetch outside the text image), or the
// watchdog. Following the paper, the simulator includes basic infinite
// loop detection: an unconditional jump-to-self aborts immediately, and a
// configurable cycle budget catches everything else.
//
// In the dependency graph, cpu sits on isa/asm/mem and accepts fault
// injectors structurally (the fi models implement its Injector
// interface without either package importing the other); the mc engine
// drives one CPU per trial, and the trace recording/restore machinery
// here is what the replay and first-fault fast paths fork from.
package cpu

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Injector decides timing-error injection for the EX stage. Inject is
// called once for every cycle in which an FI-eligible ALU instruction
// occupies EX while the FI window is open. It receives the fault-free
// result, the previously latched EX result, the fault-free flag outcome
// (meaningful for compares) and the previously latched flag. It returns
// the possibly corrupted result and flag, plus the number of endpoint bits
// that actually flipped (counting the flag endpoint as one bit).
type Injector interface {
	Inject(op isa.Op, result, prevResult uint32, flag, prevFlag bool) (out uint32, outFlag bool, flipped int)
}

// NullInjector never injects faults; it yields the golden execution.
type NullInjector struct{}

// Inject implements Injector by passing values through unchanged.
func (NullInjector) Inject(_ isa.Op, r, _ uint32, f, _ bool) (uint32, bool, int) {
	return r, f, 0
}

// Config carries the pipeline timing parameters.
type Config struct {
	BranchPenalty int    // bubbles after a taken branch/jump (default 3)
	LoadUseStall  int    // bubbles between a load and an immediate consumer (default 1)
	Watchdog      uint64 // cycle budget; 0 means no watchdog
}

// DefaultConfig returns the timing parameters of the modelled 6-stage core.
func DefaultConfig() Config {
	return Config{BranchPenalty: 3, LoadUseStall: 1}
}

// Status describes how a run ended.
type Status uint8

// Run outcomes.
const (
	StatusRunning  Status = iota
	StatusExited          // clean l.sys 0
	StatusTrapped         // illegal instruction, bus error, bad fetch
	StatusWatchdog        // cycle budget exhausted or trivial infinite loop
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusExited:
		return "exited"
	case StatusTrapped:
		return "trapped"
	case StatusWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// CPU is one simulated core instance.
type CPU struct {
	Regs [32]uint32
	PC   uint32
	Flag bool
	Mem  *mem.Memory

	cfg Config
	inj Injector

	// Predecoded text image for fast fetch.
	textBase uint32
	text     []isa.Instr

	// EX endpoint latches (previous cycle values) for stale-capture
	// fault semantics.
	prevEXResult uint32
	prevFlag     bool

	// Load-use hazard tracking.
	lastWasLoad bool
	lastLoadRD  uint8

	// Fault-injection window (opened by l.sys 1, closed by l.sys 2).
	InWindow bool

	// Golden-trace recording (see trace.go); nil when not recording.
	trace    *Trace
	nextCkpt uint64

	// Statistics.
	Cycles          uint64
	KernelCycles    uint64
	KernelALUCycles uint64
	Retired         uint64
	FIBits          uint64 // total endpoint bits flipped
	FIEvents        uint64 // cycles with at least one flipped bit
	OpCounts        [isa.NumOps]uint64

	status  Status
	trapErr error
}

// New creates a core bound to a memory and an injector. A nil injector
// runs golden (fault-free).
func New(m *mem.Memory, inj Injector, cfg Config) *CPU {
	if inj == nil {
		inj = NullInjector{}
	}
	if cfg.BranchPenalty == 0 && cfg.LoadUseStall == 0 && cfg.Watchdog == 0 {
		// Zero-value config means defaults.
		cfg = DefaultConfig()
	}
	return &CPU{Mem: m, inj: inj, cfg: cfg}
}

// Load installs an assembled program: text and data images are copied
// into memory, the text is predecoded, and the PC is set to the entry
// point. Architectural state is reset.
func (c *CPU) Load(p *asm.Program) error {
	if err := c.Mem.LoadImage(p.Text.Base, p.Text.Bytes); err != nil {
		return fmt.Errorf("cpu: loading text: %w", err)
	}
	if err := c.Mem.LoadImage(p.Data.Base, p.Data.Bytes); err != nil {
		return fmt.Errorf("cpu: loading data: %w", err)
	}
	c.textBase = p.Text.Base
	n := len(p.Text.Bytes) / 4
	c.text = make([]isa.Instr, n)
	for i := 0; i < n; i++ {
		b := p.Text.Bytes[4*i:]
		w := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		c.text[i] = isa.Decode(w)
	}
	c.PC = p.Entry
	c.Regs = [32]uint32{}
	c.Flag = false
	c.InWindow = false
	c.status = StatusRunning
	c.trapErr = nil
	return nil
}

// SetWatchdog overrides the cycle budget.
func (c *CPU) SetWatchdog(cycles uint64) { c.cfg.Watchdog = cycles }

// Status returns how the last run ended.
func (c *CPU) Status() Status { return c.status }

// TrapErr returns the cause of a StatusTrapped run, or nil.
func (c *CPU) TrapErr() error { return c.trapErr }

func (c *CPU) fetch(pc uint32) (isa.Instr, error) {
	if pc >= c.textBase && pc < c.textBase+uint32(4*len(c.text)) && pc%4 == 0 {
		return c.text[(pc-c.textBase)/4], nil
	}
	w, err := c.Mem.FetchWord(pc)
	if err != nil {
		return isa.Instr{}, err
	}
	return isa.Decode(w), nil
}

func (c *CPU) trap(err error) {
	c.status = StatusTrapped
	c.trapErr = err
}

// charge adds n cycles, attributing them to the kernel window when open.
func (c *CPU) charge(n int) {
	c.Cycles += uint64(n)
	if c.InWindow {
		c.KernelCycles += uint64(n)
	}
}

func (c *CPU) readsRA(in isa.Instr) bool {
	switch in.Op {
	case isa.OpJ, isa.OpJal, isa.OpJr, isa.OpBf, isa.OpBnf,
		isa.OpNop, isa.OpSys, isa.OpMovhi:
		return false
	}
	return true
}

func (c *CPU) readsRB(in isa.Instr) bool {
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpJr,
		isa.OpSw, isa.OpSh, isa.OpSb,
		isa.OpSfeq, isa.OpSfne, isa.OpSfgtu, isa.OpSfgeu, isa.OpSfltu,
		isa.OpSfleu, isa.OpSfgts, isa.OpSfges, isa.OpSflts, isa.OpSfles:
		return true
	}
	return false
}

// Run executes until exit, trap, or watchdog, and returns the status.
func (c *CPU) Run() Status {
	for c.status == StatusRunning {
		c.step()
	}
	return c.status
}

func (c *CPU) step() {
	if c.trace != nil && c.Cycles >= c.nextCkpt {
		c.checkpoint()
	}
	if c.cfg.Watchdog > 0 && c.Cycles >= c.cfg.Watchdog {
		c.status = StatusWatchdog
		return
	}
	in, err := c.fetch(c.PC)
	if err != nil {
		c.trap(fmt.Errorf("cpu: fetch at 0x%08x: %w", c.PC, err))
		return
	}
	if in.Op == isa.OpInvalid {
		c.trap(fmt.Errorf("cpu: illegal instruction at 0x%08x", c.PC))
		return
	}

	// Issue cost plus a load-use stall when this instruction consumes
	// the value produced by the immediately preceding load.
	cost := 1
	if c.lastWasLoad && c.lastLoadRD != 0 {
		if c.readsRA(in) && in.RA == c.lastLoadRD ||
			c.readsRB(in) && in.RB == c.lastLoadRD {
			cost += c.cfg.LoadUseStall
		}
	}
	c.lastWasLoad = false

	window := c.InWindow
	aluCycle := window && isa.IsALU(in.Op)
	if aluCycle {
		c.KernelALUCycles++
	}

	ra := c.Regs[in.RA]
	rb := c.Regs[in.RB]
	nextPC := c.PC + 4
	taken := false

	writeRD := func(v uint32) {
		if in.RD != 0 {
			c.Regs[in.RD] = v
		}
	}

	// applyFI runs the injector on an ALU result and updates the EX
	// endpoint latches.
	applyFI := func(result uint32, flag bool) (uint32, bool) {
		outR, outF := result, flag
		if aluCycle && c.trace != nil {
			c.trace.Events = append(c.trace.Events, TraceEvent{
				Op: in.Op, A: ra, B: rb, RD: in.RD,
				Result: result, Prev: c.prevEXResult,
				Flag: flag, PrevFlag: c.prevFlag,
			})
		}
		if aluCycle {
			var flipped int
			outR, outF, flipped = c.inj.Inject(in.Op, result, c.prevEXResult, flag, c.prevFlag)
			if flipped > 0 {
				c.FIBits += uint64(flipped)
				c.FIEvents++
			}
		}
		c.prevEXResult = outR
		c.prevFlag = outF
		return outR, outF
	}

	switch in.Op {
	case isa.OpNop:
		// Nothing.

	case isa.OpSys:
		switch in.Imm {
		case isa.SysExit:
			c.charge(cost)
			c.Retired++
			c.OpCounts[in.Op]++
			c.status = StatusExited
			return
		case isa.SysKernelBegin:
			c.InWindow = true
		case isa.SysKernelEnd:
			c.InWindow = false
		}

	case isa.OpJ:
		if in.Imm == 0 {
			// Unconditional jump-to-self: trivially infinite.
			c.status = StatusWatchdog
			return
		}
		nextPC = uint32(int64(c.PC) + int64(in.Imm)*4)
		taken = true
	case isa.OpJal:
		c.Regs[isa.LinkReg] = c.PC + 4
		nextPC = uint32(int64(c.PC) + int64(in.Imm)*4)
		taken = true
	case isa.OpJr:
		nextPC = rb
		taken = true
	case isa.OpBf, isa.OpBnf:
		if c.Flag == (in.Op == isa.OpBf) {
			nextPC = uint32(int64(c.PC) + int64(in.Imm)*4)
			taken = true
		}

	case isa.OpMovhi:
		writeRD(uint32(in.Imm) << 16)

	case isa.OpAdd:
		r, _ := applyFI(ra+rb, c.Flag)
		writeRD(r)
	case isa.OpAddi:
		r, _ := applyFI(ra+uint32(in.Imm), c.Flag)
		writeRD(r)
	case isa.OpSub:
		r, _ := applyFI(ra-rb, c.Flag)
		writeRD(r)
	case isa.OpMul:
		r, _ := applyFI(uint32(int32(ra)*int32(rb)), c.Flag)
		writeRD(r)
	case isa.OpMuli:
		r, _ := applyFI(uint32(int32(ra)*in.Imm), c.Flag)
		writeRD(r)
	case isa.OpAnd:
		r, _ := applyFI(ra&rb, c.Flag)
		writeRD(r)
	case isa.OpOr:
		r, _ := applyFI(ra|rb, c.Flag)
		writeRD(r)
	case isa.OpXor:
		r, _ := applyFI(ra^rb, c.Flag)
		writeRD(r)
	case isa.OpAndi:
		r, _ := applyFI(ra&uint32(uint16(in.Imm)), c.Flag)
		writeRD(r)
	case isa.OpOri:
		r, _ := applyFI(ra|uint32(uint16(in.Imm)), c.Flag)
		writeRD(r)
	case isa.OpXori:
		r, _ := applyFI(ra^uint32(in.Imm), c.Flag)
		writeRD(r)
	case isa.OpSll:
		r, _ := applyFI(ra<<(rb&31), c.Flag)
		writeRD(r)
	case isa.OpSrl:
		r, _ := applyFI(ra>>(rb&31), c.Flag)
		writeRD(r)
	case isa.OpSra:
		r, _ := applyFI(uint32(int32(ra)>>(rb&31)), c.Flag)
		writeRD(r)
	case isa.OpSlli:
		r, _ := applyFI(ra<<uint32(in.Imm&31), c.Flag)
		writeRD(r)
	case isa.OpSrli:
		r, _ := applyFI(ra>>uint32(in.Imm&31), c.Flag)
		writeRD(r)
	case isa.OpSrai:
		r, _ := applyFI(uint32(int32(ra)>>uint32(in.Imm&31)), c.Flag)
		writeRD(r)

	case isa.OpSfeq, isa.OpSfne, isa.OpSfgtu, isa.OpSfgeu, isa.OpSfltu,
		isa.OpSfleu, isa.OpSfgts, isa.OpSfges, isa.OpSflts, isa.OpSfles:
		f := compare(in.Op, ra, rb)
		// The subtract result travels through the same endpoints; the
		// flag endpoint is what architecture observes.
		_, f = applyFI(ra-rb, f)
		c.Flag = f
	case isa.OpSfeqi, isa.OpSfnei, isa.OpSfgtui, isa.OpSfltui,
		isa.OpSfgtsi, isa.OpSfltsi:
		b := uint32(in.Imm)
		f := compare(in.Op, ra, b)
		_, f = applyFI(ra-b, f)
		c.Flag = f

	case isa.OpLwz:
		v, err := c.Mem.LoadWord(ra + uint32(in.Imm))
		if err != nil {
			c.trap(err)
			return
		}
		writeRD(v)
		c.lastWasLoad, c.lastLoadRD = true, in.RD
	case isa.OpLhz:
		v, err := c.Mem.LoadHalf(ra + uint32(in.Imm))
		if err != nil {
			c.trap(err)
			return
		}
		writeRD(uint32(v))
		c.lastWasLoad, c.lastLoadRD = true, in.RD
	case isa.OpLbz:
		v, err := c.Mem.LoadByte(ra + uint32(in.Imm))
		if err != nil {
			c.trap(err)
			return
		}
		writeRD(uint32(v))
		c.lastWasLoad, c.lastLoadRD = true, in.RD
	case isa.OpSw:
		if err := c.Mem.StoreWord(ra+uint32(in.Imm), rb); err != nil {
			c.trap(err)
			return
		}
		c.recordStore(ra+uint32(in.Imm), 4, rb)
	case isa.OpSh:
		if err := c.Mem.StoreHalf(ra+uint32(in.Imm), uint16(rb)); err != nil {
			c.trap(err)
			return
		}
		c.recordStore(ra+uint32(in.Imm), 2, rb)
	case isa.OpSb:
		if err := c.Mem.StoreByte(ra+uint32(in.Imm), uint8(rb)); err != nil {
			c.trap(err)
			return
		}
		c.recordStore(ra+uint32(in.Imm), 1, rb)

	default:
		c.trap(fmt.Errorf("cpu: unimplemented op %v at 0x%08x", in.Op, c.PC))
		return
	}

	if taken {
		cost += c.cfg.BranchPenalty
	}
	c.charge(cost)
	c.Retired++
	c.OpCounts[in.Op]++
	c.PC = nextPC
}

// compare evaluates an l.sf* condition on two operand words.
func compare(op isa.Op, a, b uint32) bool {
	sa, sb := int32(a), int32(b)
	switch op {
	case isa.OpSfeq, isa.OpSfeqi:
		return a == b
	case isa.OpSfne, isa.OpSfnei:
		return a != b
	case isa.OpSfgtu, isa.OpSfgtui:
		return a > b
	case isa.OpSfgeu:
		return a >= b
	case isa.OpSfltu, isa.OpSfltui:
		return a < b
	case isa.OpSfleu:
		return a <= b
	case isa.OpSfgts, isa.OpSfgtsi:
		return sa > sb
	case isa.OpSfges:
		return sa >= sb
	case isa.OpSflts, isa.OpSfltsi:
		return sa < sb
	case isa.OpSfles:
		return sa <= sb
	}
	return false
}

// ALUMix summarizes the retired instruction mix of the last run; used for
// Table 1's compute/control characterization.
type ALUMix struct {
	Total    uint64
	ALU      uint64
	Mul      uint64
	Compare  uint64
	Memory   uint64
	Control  uint64
	OtherALU uint64
}

// Mix computes the retired instruction mix.
func (c *CPU) Mix() ALUMix {
	var m ALUMix
	for op, n := range c.OpCounts {
		if n == 0 {
			continue
		}
		o := isa.Op(op)
		m.Total += n
		switch {
		case isa.ClassOf(o) == isa.ClassMul:
			m.Mul += n
			m.ALU += n
		case isa.IsCompare(o):
			m.Compare += n
			m.ALU += n
		case isa.IsALU(o):
			m.OtherALU += n
			m.ALU += n
		case isa.IsLoad(o) || isa.IsStore(o):
			m.Memory += n
		case isa.IsBranch(o):
			m.Control += n
		}
	}
	return m
}
