package cpu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The reference ISS step: step and fetch exactly as they were before
// the fetch fast path moved inline and the writeRD/applyFI closures
// became one ALU switch with a shared FI block. FuzzStepMatchesReference
// runs it in lockstep with the production step.

func (c *CPU) refFetch(pc uint32) (isa.Instr, error) {
	if pc >= c.textBase && pc < c.textBase+uint32(4*len(c.text)) && pc%4 == 0 {
		return c.text[(pc-c.textBase)/4], nil
	}
	w, err := c.Mem.FetchWord(pc)
	if err != nil {
		return isa.Instr{}, err
	}
	return isa.Decode(w), nil
}

func (c *CPU) refStep() {
	if c.trace != nil && c.Cycles >= c.nextCkpt {
		c.checkpoint()
	}
	if c.cfg.Watchdog > 0 && c.Cycles >= c.cfg.Watchdog {
		c.status = StatusWatchdog
		return
	}
	in, err := c.refFetch(c.PC)
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
				Result: result, Prev: c.prevEXResult, Op: in.Op,
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

// fuzzInjector is a deterministic, stateful injector for the lockstep
// fuzzer: a SplitMix64 stream decides per query whether to pass the
// golden values through, flip a random mask of result bits (and maybe
// the flag), or capture the previous latch values (stale capture). Two
// instances with one seed answer one query sequence identically.
type fuzzInjector struct{ s, queries uint64 }

// next advances the SplitMix64 stream.
func (j *fuzzInjector) next() uint64 {
	j.s += 0x9e3779b97f4a7c15
	z := j.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (j *fuzzInjector) Inject(_ isa.Op, result, prev uint32, flag, prevFlag bool) (uint32, bool, int) {
	j.queries++
	z := j.next()
	var out uint32
	var outFlag bool
	switch z % 4 {
	case 0, 1:
		return result, flag, 0
	case 2:
		out, outFlag = result^uint32(z>>32)&uint32(z>>8), flag != (z&(1<<7) != 0)
	default:
		out, outFlag = prev, prevFlag
	}
	n := bits.OnesCount32(out ^ result)
	if outFlag != flag {
		n++
	}
	return out, outFlag, n
}

// fuzzProgram turns fuzz input into a program: each 6-byte group is one
// text word. Most groups encode a valid instruction of any op with
// fuzz-chosen registers and immediates, shaped so that programs run for
// a while: branches mostly target a word of the text (loops included),
// l.sys mostly toggles the FI window, movhi immediates point into
// memory, and memory offsets are mostly aligned and in range. One
// branch in eight keeps a short raw offset that may leave the text,
// one memory op in eight a raw offset (bad loads and stores), and one
// group in 32 is a raw word, which may decode to an invalid op. Below
// the text, every aligned word is an l.j back to the text base: a jump
// to a small address (l.jr through a zeroed register) runs on through
// the fetch slow path instead of ending the program.
func fuzzProgram(code []byte) *asm.Program {
	ops := isa.AllOps()
	n := len(code) / 6
	var text []byte
	for k := 0; len(code) >= 6; k, code = k+1, code[6:] {
		b := code
		w := uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
		if b[0] < 248 {
			in := isa.Instr{
				Op: ops[int(b[0])%len(ops)],
				RD: b[1] & 31, RA: b[2] & 31, RB: b[3] & 31,
				Imm: int32(int16(uint16(b[4])<<8 | uint16(b[5]))),
			}
			switch {
			case isa.IsBranch(in.Op) && b[5]&7 != 0:
				in.Imm = int32(int(b[4])%n - k)
			case isa.IsBranch(in.Op):
				in.Imm = int32(int8(b[5])) % 12
			case in.Op == isa.OpSys:
				in.Imm = isa.SysKernelBegin + int32(b[5]&1)
				if b[5]&0x1e == 0 {
					in.Imm = isa.SysExit
				}
			case in.Op == isa.OpMovhi:
				in.Imm = int32(b[5] & 7)
			case in.Op == isa.OpSlli || in.Op == isa.OpSrli || in.Op == isa.OpSrai:
				in.Imm = int32(b[5] & 31)
			case (isa.IsLoad(in.Op) || isa.IsStore(in.Op)) && b[5]&7 != 0:
				in.Imm &= 0x7ffc
			}
			if enc, err := isa.Encode(in); err == nil {
				w = enc
			}
		}
		text = append(text, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	low := make([]byte, asm.DefaultTextBase)
	for a := 0; a < len(low); a += 4 {
		w, err := isa.Encode(isa.Instr{Op: isa.OpJ, Imm: int32(asm.DefaultTextBase-a) / 4})
		if err != nil {
			panic(err)
		}
		binary.BigEndian.PutUint32(low[a:], w)
	}
	return &asm.Program{
		Entry: asm.DefaultTextBase,
		Text:  asm.Segment{Base: asm.DefaultTextBase, Bytes: text},
		Data:  asm.Segment{Base: 0, Bytes: low},
	}
}

// cpuDiff names the first difference between two cores' complete
// state — every field, the injector's position, the recorded trace
// and the whole memory image — or returns "".
func cpuDiff(a, b *CPU) string {
	ac, bc := *a, *b
	ac.Mem, bc.Mem = nil, nil
	ac.inj, bc.inj = nil, nil
	ac.trace, bc.trace = nil, nil
	ac.trapErr, bc.trapErr = nil, nil
	switch {
	case !reflect.DeepEqual(ac, bc):
		return fmt.Sprintf("state\n got %+v\nwant %+v", ac, bc)
	case fmt.Sprint(a.trapErr) != fmt.Sprint(b.trapErr):
		return fmt.Sprintf("trap %v, want %v", a.trapErr, b.trapErr)
	case *a.inj.(*fuzzInjector) != *b.inj.(*fuzzInjector):
		return fmt.Sprintf("injector %+v, want %+v", a.inj, b.inj)
	case !reflect.DeepEqual(a.trace, b.trace):
		return "trace"
	case !reflect.DeepEqual(a.Mem, b.Mem):
		return "memory"
	}
	return ""
}

// FuzzStepMatchesReference runs the production step and the reference
// step in lockstep over fuzz-built programs — invalid ops, jumps out of
// the text image and to misaligned targets, out-of-range and misaligned
// loads and stores, FI-window toggles, trace recording with
// checkpoints, the watchdog — with the same seeded injector on both
// sides, and requires the complete CPU and memory state to agree after
// every step.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(3), []byte{
		0x08, 0x01, 0x00, 0x00, 0x00, 0x07,
		0x11, 0x02, 0x01, 0x01, 0x00, 0x05,
		0x20, 0x03, 0x02, 0x01, 0x12, 0x34,
		0xe0, 0x44, 0x00, 0x00, 0x01, 0x00,
		0x02, 0x09, 0x03, 0x02, 0x00, 0xfd,
	})
	f.Add(uint64(6), []byte("a longer program: memory ops, compares, jr and movhi mixed"))
	// Long pseudo-random programs under each window/trace combination,
	// so the seed corpus alone reaches every op and exit path.
	for seed := uint64(0); seed < 4; seed++ {
		code := make([]byte, 1200)
		j := fuzzInjector{s: seed}
		for i := range code {
			code[i] = byte(j.next())
		}
		f.Add(seed+1024, code)
	}
	f.Fuzz(func(t *testing.T, seed uint64, code []byte) {
		p := fuzzProgram(code)
		cfg := Config{BranchPenalty: 3, LoadUseStall: 1, Watchdog: 64 + seed%2048}
		cur := New(mem.New(), &fuzzInjector{s: seed}, cfg)
		ref := New(mem.New(), &fuzzInjector{s: seed}, cfg)
		for _, c := range []*CPU{cur, ref} {
			if err := c.Load(p); err != nil {
				t.Fatal(err)
			}
			c.InWindow = seed&1 != 0
			if seed&2 != 0 {
				c.StartTrace(16)
			}
		}
		for i := 0; i < 1024 && ref.status == StatusRunning; i++ {
			cur.step()
			ref.refStep()
			if d := cpuDiff(cur, ref); d != "" {
				t.Fatalf("step %d (pc 0x%08x): %s", i, ref.PC, d)
			}
		}
		if cur.status != ref.status {
			t.Fatalf("status %v, want %v", cur.status, ref.status)
		}
	})
}
