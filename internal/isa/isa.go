// Package isa defines the instruction-set architecture simulated by the
// fault-injection framework: a 32-bit, big-endian, OpenRISC-flavoured RISC
// ISA (an ORBIS32 subset in spirit) with 32 general-purpose registers, a
// single compare flag, and fixed 32-bit instruction words.
//
// The encoding follows the ORBIS32 layout where convenient but is our own
// dialect: there are no branch delay slots, and the R-type/shift sub-opcode
// assignment is simplified. The assembler (internal/asm) and the simulator
// (internal/cpu) only ever talk to each other through this package, and the
// Encode/Decode round-trip is exhaustively tested, so internal consistency
// is what matters.
//
// isa is a leaf of the dependency graph: asm, cpu and bench all build
// on its encodings, and nothing here imports anything but stdlib.
package isa

import "fmt"

// Op enumerates every instruction mnemonic understood by the simulator.
type Op uint8

// Instruction mnemonics. The l. prefix of OpenRISC assembly is dropped in
// the enum names; the assembler accepts both spellings.
const (
	OpInvalid Op = iota

	// Control flow.
	OpJ   // l.j label        : pc-relative jump
	OpJal // l.jal label      : jump and link (r9)
	OpJr  // l.jr rB          : jump register
	OpBf  // l.bf label       : branch if flag set
	OpBnf // l.bnf label      : branch if flag clear
	OpNop // l.nop imm        : no operation
	OpSys // l.sys imm        : system call (exit / kernel markers)

	// Arithmetic and logic (register forms).
	OpAdd // l.add rD,rA,rB
	OpSub // l.sub rD,rA,rB
	OpMul // l.mul rD,rA,rB   : low 32 bits of signed product
	OpAnd // l.and rD,rA,rB
	OpOr  // l.or  rD,rA,rB
	OpXor // l.xor rD,rA,rB
	OpSll // l.sll rD,rA,rB
	OpSrl // l.srl rD,rA,rB
	OpSra // l.sra rD,rA,rB

	// Arithmetic and logic (immediate forms).
	OpAddi  // l.addi rD,rA,simm16
	OpMuli  // l.muli rD,rA,simm16
	OpAndi  // l.andi rD,rA,uimm16
	OpOri   // l.ori  rD,rA,uimm16
	OpXori  // l.xori rD,rA,simm16
	OpSlli  // l.slli rD,rA,uimm6
	OpSrli  // l.srli rD,rA,uimm6
	OpSrai  // l.srai rD,rA,uimm6
	OpMovhi // l.movhi rD,uimm16 : rD = imm << 16

	// Compares: set the flag register.
	OpSfeq  // l.sfeq rA,rB
	OpSfne  // l.sfne rA,rB
	OpSfgtu // l.sfgtu rA,rB
	OpSfgeu // l.sfgeu rA,rB
	OpSfltu // l.sfltu rA,rB
	OpSfleu // l.sfleu rA,rB
	OpSfgts // l.sfgts rA,rB
	OpSfges // l.sfges rA,rB
	OpSflts // l.sflts rA,rB
	OpSfles // l.sfles rA,rB

	// Compare-immediate forms (signed 16-bit immediate).
	OpSfeqi  // l.sfeqi rA,simm16
	OpSfnei  // l.sfnei rA,simm16
	OpSfgtui // l.sfgtui rA,simm16
	OpSfltui // l.sfltui rA,simm16
	OpSfgtsi // l.sfgtsi rA,simm16
	OpSfltsi // l.sfltsi rA,simm16

	// Memory.
	OpLwz // l.lwz rD,simm16(rA)
	OpLhz // l.lhz rD,simm16(rA)  : zero-extended halfword
	OpLbz // l.lbz rD,simm16(rA)  : zero-extended byte
	OpSw  // l.sw  simm16(rA),rB
	OpSh  // l.sh  simm16(rA),rB
	OpSb  // l.sb  simm16(rA),rB

	opMax // sentinel
)

// NumOps is the number of valid opcodes plus the invalid sentinel; useful
// for building dense per-op tables.
const NumOps = int(opMax)

// Instr is a fully decoded instruction.
type Instr struct {
	Op  Op
	RD  uint8 // destination register (or store source slot's partner)
	RA  uint8 // first source register
	RB  uint8 // second source register / store data register
	Imm int32 // sign- or zero-extended immediate, or word branch offset
}

// Syscall immediate values understood by the simulator.
const (
	SysExit        = 0 // terminate the program successfully
	SysKernelBegin = 1 // open the fault-injection window
	SysKernelEnd   = 2 // close the fault-injection window
)

// LinkReg is the register written by l.jal.
const LinkReg = 9

// mnemonics maps ops to assembly names.
var mnemonics = [...]string{
	OpInvalid: "l.invalid",
	OpJ:       "l.j", OpJal: "l.jal", OpJr: "l.jr", OpBf: "l.bf", OpBnf: "l.bnf",
	OpNop: "l.nop", OpSys: "l.sys",
	OpAdd: "l.add", OpSub: "l.sub", OpMul: "l.mul", OpAnd: "l.and", OpOr: "l.or",
	OpXor: "l.xor", OpSll: "l.sll", OpSrl: "l.srl", OpSra: "l.sra",
	OpAddi: "l.addi", OpMuli: "l.muli", OpAndi: "l.andi", OpOri: "l.ori",
	OpXori: "l.xori", OpSlli: "l.slli", OpSrli: "l.srli", OpSrai: "l.srai",
	OpMovhi: "l.movhi",
	OpSfeq:  "l.sfeq", OpSfne: "l.sfne", OpSfgtu: "l.sfgtu", OpSfgeu: "l.sfgeu",
	OpSfltu: "l.sfltu", OpSfleu: "l.sfleu", OpSfgts: "l.sfgts", OpSfges: "l.sfges",
	OpSflts: "l.sflts", OpSfles: "l.sfles",
	OpSfeqi: "l.sfeqi", OpSfnei: "l.sfnei", OpSfgtui: "l.sfgtui",
	OpSfltui: "l.sfltui", OpSfgtsi: "l.sfgtsi", OpSfltsi: "l.sfltsi",
	OpLwz: "l.lwz", OpLhz: "l.lhz", OpLbz: "l.lbz",
	OpSw: "l.sw", OpSh: "l.sh", OpSb: "l.sb",
}

// String returns the assembly mnemonic of the op.
func (o Op) String() string {
	if int(o) < len(mnemonics) && mnemonics[o] != "" {
		return mnemonics[o]
	}
	return fmt.Sprintf("l.op%d", uint8(o))
}

// Class groups instructions by the execution resource they exercise; the
// dynamic timing analysis characterizes each class with its own operand
// distribution, and the fault-injection models condition on it.
type Class uint8

// Instruction classes.
const (
	ClassNone    Class = iota // bubbles, nop
	ClassAdder                // add/addi: carry-propagate adder
	ClassSubber               // sub: adder in subtract mode
	ClassMul                  // mul/muli: multiplier array
	ClassLogic                // and/or/xor (+imm): single-level logic unit
	ClassShift                // shifts: barrel shifter
	ClassCompare              // l.sf*: subtract + flag derivation
	ClassMovhi                // movhi: immediate path
	ClassMem                  // loads/stores
	ClassCtrl                 // jumps, branches, sys
)

// classOf maps every op byte to its execution class; bytes that name
// no op (and OpInvalid) are ClassNone.
var classOf = [256]Class{
	OpAdd: ClassAdder, OpAddi: ClassAdder,
	OpSub: ClassSubber,
	OpMul: ClassMul, OpMuli: ClassMul,
	OpAnd: ClassLogic, OpOr: ClassLogic, OpXor: ClassLogic,
	OpAndi: ClassLogic, OpOri: ClassLogic, OpXori: ClassLogic,
	OpSll: ClassShift, OpSrl: ClassShift, OpSra: ClassShift,
	OpSlli: ClassShift, OpSrli: ClassShift, OpSrai: ClassShift,
	OpSfeq: ClassCompare, OpSfne: ClassCompare, OpSfgtu: ClassCompare,
	OpSfgeu: ClassCompare, OpSfltu: ClassCompare, OpSfleu: ClassCompare,
	OpSfgts: ClassCompare, OpSfges: ClassCompare, OpSflts: ClassCompare,
	OpSfles: ClassCompare, OpSfeqi: ClassCompare, OpSfnei: ClassCompare,
	OpSfgtui: ClassCompare, OpSfltui: ClassCompare, OpSfgtsi: ClassCompare,
	OpSfltsi: ClassCompare,
	OpMovhi:  ClassMovhi,
	OpLwz:    ClassMem, OpLhz: ClassMem, OpLbz: ClassMem,
	OpSw: ClassMem, OpSh: ClassMem, OpSb: ClassMem,
	OpJ: ClassCtrl, OpJal: ClassCtrl, OpJr: ClassCtrl,
	OpBf: ClassCtrl, OpBnf: ClassCtrl, OpSys: ClassCtrl,
	OpNop: ClassNone,
}

// isALU is IsALU for every op byte, derived from classOf.
var isALU = func() (t [256]bool) {
	for op, c := range classOf {
		switch c {
		case ClassAdder, ClassSubber, ClassMul, ClassLogic, ClassShift, ClassCompare:
			t[op] = true
		}
	}
	return t
}()

// ClassOf returns the execution class of an op. It is a table lookup
// (the op byte indexes a 256-entry table, so no bounds check remains)
// and inlines into the simulator's per-cycle path.
func ClassOf(op Op) Class { return classOf[op] }

// IsALU reports whether the op is executed by the ALU data path of the
// execution stage and is therefore eligible for timing-error injection.
// Following the paper's case study, non-ALU instructions (branches, loads,
// stores, ...) are always safe from timing errors below the non-ALU safe
// frequency threshold, because the constraint strategy of [14] keeps all
// other paths short.
func IsALU(op Op) bool { return isALU[op] }

// IsCompare reports whether the op sets the flag register.
func IsCompare(op Op) bool { return ClassOf(op) == ClassCompare }

// IsLoad reports whether the op reads data memory.
func IsLoad(op Op) bool { return op == OpLwz || op == OpLhz || op == OpLbz }

// IsStore reports whether the op writes data memory.
func IsStore(op Op) bool { return op == OpSw || op == OpSh || op == OpSb }

// IsBranch reports whether the op may redirect control flow.
func IsBranch(op Op) bool {
	switch op {
	case OpJ, OpJal, OpJr, OpBf, OpBnf:
		return true
	}
	return false
}

// Primary opcode values (bits 31:26 of the instruction word).
const (
	pcJ     = 0x00
	pcJal   = 0x01
	pcBnf   = 0x03
	pcBf    = 0x04
	pcNop   = 0x05
	pcMovhi = 0x06
	pcSys   = 0x08
	pcJr    = 0x11
	pcLwz   = 0x21
	pcLbz   = 0x23
	pcLhz   = 0x25
	pcAddi  = 0x27
	pcAndi  = 0x29
	pcOri   = 0x2A
	pcXori  = 0x2B
	pcMuli  = 0x2C
	pcShImm = 0x2E
	pcSfImm = 0x2F
	pcSw    = 0x35
	pcSb    = 0x36
	pcSh    = 0x37
	pcRtype = 0x38
	pcSf    = 0x39
)

// R-type sub-opcodes (bits 3:0).
const (
	rtAdd = 0x0
	rtSub = 0x2
	rtAnd = 0x3
	rtOr  = 0x4
	rtXor = 0x5
	rtMul = 0x6
	rtSll = 0x8
	rtSrl = 0x9
	rtSra = 0xA
)

// Shift-immediate sub-opcodes (bits 7:6).
const (
	shiSll = 0
	shiSrl = 1
	shiSra = 2
)

// Compare codes (bits 25:21 of l.sf / l.sf*i words).
const (
	sfEq  = 0x0
	sfNe  = 0x1
	sfGtu = 0x2
	sfGeu = 0x3
	sfLtu = 0x4
	sfLeu = 0x5
	sfGts = 0xA
	sfGes = 0xB
	sfLts = 0xC
	sfLes = 0xD
)

var sfRegOps = map[uint32]Op{
	sfEq: OpSfeq, sfNe: OpSfne, sfGtu: OpSfgtu, sfGeu: OpSfgeu,
	sfLtu: OpSfltu, sfLeu: OpSfleu, sfGts: OpSfgts, sfGes: OpSfges,
	sfLts: OpSflts, sfLes: OpSfles,
}

var sfImmOps = map[uint32]Op{
	sfEq: OpSfeqi, sfNe: OpSfnei, sfGtu: OpSfgtui,
	sfLtu: OpSfltui, sfGts: OpSfgtsi, sfLts: OpSfltsi,
}

func sfCodeOf(op Op) uint32 {
	switch op {
	case OpSfeq, OpSfeqi:
		return sfEq
	case OpSfne, OpSfnei:
		return sfNe
	case OpSfgtu, OpSfgtui:
		return sfGtu
	case OpSfgeu:
		return sfGeu
	case OpSfltu, OpSfltui:
		return sfLtu
	case OpSfleu:
		return sfLeu
	case OpSfgts, OpSfgtsi:
		return sfGts
	case OpSfges:
		return sfGes
	case OpSflts, OpSfltsi:
		return sfLts
	case OpSfles:
		return sfLes
	}
	return 0x1F
}

func signExt16(v uint32) int32 { return int32(int16(uint16(v))) }

func signExt26(v uint32) int32 {
	v &= 0x03FFFFFF
	if v&0x02000000 != 0 {
		v |= 0xFC000000
	}
	return int32(v)
}

// Encode packs an instruction into a 32-bit word.
func Encode(in Instr) (uint32, error) {
	rd, ra, rb := uint32(in.RD)&31, uint32(in.RA)&31, uint32(in.RB)&31
	imm16 := uint32(in.Imm) & 0xFFFF
	switch in.Op {
	case OpJ:
		return pcJ<<26 | uint32(in.Imm)&0x03FFFFFF, nil
	case OpJal:
		return pcJal<<26 | uint32(in.Imm)&0x03FFFFFF, nil
	case OpBnf:
		return pcBnf<<26 | uint32(in.Imm)&0x03FFFFFF, nil
	case OpBf:
		return pcBf<<26 | uint32(in.Imm)&0x03FFFFFF, nil
	case OpNop:
		return pcNop<<26 | imm16, nil
	case OpMovhi:
		return pcMovhi<<26 | rd<<21 | imm16, nil
	case OpSys:
		return pcSys<<26 | imm16, nil
	case OpJr:
		return pcJr<<26 | rb<<11, nil
	case OpLwz:
		return pcLwz<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpLbz:
		return pcLbz<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpLhz:
		return pcLhz<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpAddi:
		return pcAddi<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpAndi:
		return pcAndi<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpOri:
		return pcOri<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpXori:
		return pcXori<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpMuli:
		return pcMuli<<26 | rd<<21 | ra<<16 | imm16, nil
	case OpSlli, OpSrli, OpSrai:
		var sub uint32
		switch in.Op {
		case OpSlli:
			sub = shiSll
		case OpSrli:
			sub = shiSrl
		default:
			sub = shiSra
		}
		if in.Imm < 0 || in.Imm > 31 {
			return 0, fmt.Errorf("isa: shift amount %d out of range", in.Imm)
		}
		return pcShImm<<26 | rd<<21 | ra<<16 | sub<<6 | uint32(in.Imm)&0x3F, nil
	case OpSfeqi, OpSfnei, OpSfgtui, OpSfltui, OpSfgtsi, OpSfltsi:
		return pcSfImm<<26 | sfCodeOf(in.Op)<<21 | ra<<16 | imm16, nil
	case OpSw, OpSb, OpSh:
		var pc uint32
		switch in.Op {
		case OpSw:
			pc = pcSw
		case OpSb:
			pc = pcSb
		default:
			pc = pcSh
		}
		// Split immediate like ORBIS32: hi 5 bits in 25:21, lo 11 in 10:0.
		return pc<<26 | (imm16>>11)<<21 | ra<<16 | rb<<11 | imm16&0x7FF, nil
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpSll, OpSrl, OpSra:
		var sub uint32
		switch in.Op {
		case OpAdd:
			sub = rtAdd
		case OpSub:
			sub = rtSub
		case OpAnd:
			sub = rtAnd
		case OpOr:
			sub = rtOr
		case OpXor:
			sub = rtXor
		case OpMul:
			sub = rtMul
		case OpSll:
			sub = rtSll
		case OpSrl:
			sub = rtSrl
		default:
			sub = rtSra
		}
		return pcRtype<<26 | rd<<21 | ra<<16 | rb<<11 | sub, nil
	case OpSfeq, OpSfne, OpSfgtu, OpSfgeu, OpSfltu, OpSfleu,
		OpSfgts, OpSfges, OpSflts, OpSfles:
		return pcSf<<26 | sfCodeOf(in.Op)<<21 | ra<<16 | rb<<11, nil
	}
	return 0, fmt.Errorf("isa: cannot encode op %v", in.Op)
}

// Decode unpacks a 32-bit instruction word. Unknown encodings return an
// Instr with Op == OpInvalid and a nil error so the simulator can raise an
// illegal-instruction trap (a faulted fetch is a runtime event, not a
// decode-time programming error).
func Decode(w uint32) Instr {
	pc := w >> 26
	rd := uint8(w >> 21 & 31)
	ra := uint8(w >> 16 & 31)
	rb := uint8(w >> 11 & 31)
	imm16 := w & 0xFFFF
	switch pc {
	case pcJ:
		return Instr{Op: OpJ, Imm: signExt26(w)}
	case pcJal:
		return Instr{Op: OpJal, Imm: signExt26(w)}
	case pcBnf:
		return Instr{Op: OpBnf, Imm: signExt26(w)}
	case pcBf:
		return Instr{Op: OpBf, Imm: signExt26(w)}
	case pcNop:
		return Instr{Op: OpNop, Imm: int32(imm16)}
	case pcMovhi:
		return Instr{Op: OpMovhi, RD: rd, Imm: int32(imm16)}
	case pcSys:
		return Instr{Op: OpSys, Imm: int32(imm16)}
	case pcJr:
		return Instr{Op: OpJr, RB: rb}
	case pcLwz:
		return Instr{Op: OpLwz, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcLbz:
		return Instr{Op: OpLbz, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcLhz:
		return Instr{Op: OpLhz, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcAddi:
		return Instr{Op: OpAddi, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcAndi:
		return Instr{Op: OpAndi, RD: rd, RA: ra, Imm: int32(imm16)}
	case pcOri:
		return Instr{Op: OpOri, RD: rd, RA: ra, Imm: int32(imm16)}
	case pcXori:
		return Instr{Op: OpXori, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcMuli:
		return Instr{Op: OpMuli, RD: rd, RA: ra, Imm: signExt16(imm16)}
	case pcShImm:
		sub := w >> 6 & 3
		amt := int32(w & 0x3F)
		if amt > 31 {
			return Instr{Op: OpInvalid}
		}
		switch sub {
		case shiSll:
			return Instr{Op: OpSlli, RD: rd, RA: ra, Imm: amt}
		case shiSrl:
			return Instr{Op: OpSrli, RD: rd, RA: ra, Imm: amt}
		case shiSra:
			return Instr{Op: OpSrai, RD: rd, RA: ra, Imm: amt}
		}
	case pcSfImm:
		if op, ok := sfImmOps[uint32(rd)]; ok {
			return Instr{Op: op, RA: ra, Imm: signExt16(imm16)}
		}
	case pcSw, pcSb, pcSh:
		imm := uint32(rd)<<11 | w&0x7FF
		// Sign-extend the reassembled 16-bit immediate.
		simm := signExt16(imm)
		switch pc {
		case pcSw:
			return Instr{Op: OpSw, RA: ra, RB: rb, Imm: simm}
		case pcSb:
			return Instr{Op: OpSb, RA: ra, RB: rb, Imm: simm}
		default:
			return Instr{Op: OpSh, RA: ra, RB: rb, Imm: simm}
		}
	case pcRtype:
		var op Op
		switch w & 0xF {
		case rtAdd:
			op = OpAdd
		case rtSub:
			op = OpSub
		case rtAnd:
			op = OpAnd
		case rtOr:
			op = OpOr
		case rtXor:
			op = OpXor
		case rtMul:
			op = OpMul
		case rtSll:
			op = OpSll
		case rtSrl:
			op = OpSrl
		case rtSra:
			op = OpSra
		default:
			return Instr{Op: OpInvalid}
		}
		return Instr{Op: op, RD: rd, RA: ra, RB: rb}
	case pcSf:
		if op, ok := sfRegOps[uint32(rd)]; ok {
			return Instr{Op: op, RA: ra, RB: rb}
		}
	}
	return Instr{Op: OpInvalid}
}

// String renders the instruction in assembly syntax.
func (in Instr) String() string {
	switch {
	case in.Op == OpJ || in.Op == OpJal || in.Op == OpBf || in.Op == OpBnf:
		return fmt.Sprintf("%v %d", in.Op, in.Imm)
	case in.Op == OpJr:
		return fmt.Sprintf("%v r%d", in.Op, in.RB)
	case in.Op == OpNop || in.Op == OpSys:
		return fmt.Sprintf("%v %d", in.Op, in.Imm)
	case in.Op == OpMovhi:
		return fmt.Sprintf("%v r%d,0x%x", in.Op, in.RD, uint16(in.Imm))
	case IsLoad(in.Op):
		return fmt.Sprintf("%v r%d,%d(r%d)", in.Op, in.RD, in.Imm, in.RA)
	case IsStore(in.Op):
		return fmt.Sprintf("%v %d(r%d),r%d", in.Op, in.Imm, in.RA, in.RB)
	case in.Op == OpSlli || in.Op == OpSrli || in.Op == OpSrai ||
		in.Op == OpAddi || in.Op == OpMuli || in.Op == OpAndi ||
		in.Op == OpOri || in.Op == OpXori:
		return fmt.Sprintf("%v r%d,r%d,%d", in.Op, in.RD, in.RA, in.Imm)
	case IsCompare(in.Op):
		switch in.Op {
		case OpSfeqi, OpSfnei, OpSfgtui, OpSfltui, OpSfgtsi, OpSfltsi:
			return fmt.Sprintf("%v r%d,%d", in.Op, in.RA, in.Imm)
		}
		return fmt.Sprintf("%v r%d,r%d", in.Op, in.RA, in.RB)
	default:
		return fmt.Sprintf("%v r%d,r%d,r%d", in.Op, in.RD, in.RA, in.RB)
	}
}

// AllOps returns every valid op, useful for exhaustive tests and tables.
func AllOps() []Op {
	ops := make([]Op, 0, NumOps)
	for o := OpJ; o < opMax; o++ {
		ops = append(ops, o)
	}
	return ops
}
