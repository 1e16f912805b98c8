package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleInstr builds a random but encodable instruction for the given op.
func sampleInstr(op Op, rng *rand.Rand) Instr {
	in := Instr{Op: op}
	reg := func() uint8 { return uint8(rng.Intn(32)) }
	simm16 := func() int32 { return int32(int16(rng.Uint32())) }
	switch {
	case op == OpJ || op == OpJal || op == OpBf || op == OpBnf:
		// 26-bit signed word offset.
		in.Imm = int32(rng.Intn(1<<25)) - 1<<24
	case op == OpJr:
		in.RB = reg()
	case op == OpNop || op == OpSys:
		in.Imm = int32(rng.Intn(1 << 16))
	case op == OpMovhi:
		in.RD, in.Imm = reg(), int32(rng.Intn(1<<16))
	case IsLoad(op):
		in.RD, in.RA, in.Imm = reg(), reg(), simm16()
	case IsStore(op):
		in.RA, in.RB, in.Imm = reg(), reg(), simm16()
	case op == OpSlli || op == OpSrli || op == OpSrai:
		in.RD, in.RA, in.Imm = reg(), reg(), int32(rng.Intn(32))
	case op == OpAndi || op == OpOri:
		in.RD, in.RA, in.Imm = reg(), reg(), int32(rng.Intn(1<<16))
	case op == OpAddi || op == OpMuli || op == OpXori:
		in.RD, in.RA, in.Imm = reg(), reg(), simm16()
	case op == OpSfeqi || op == OpSfnei || op == OpSfgtui ||
		op == OpSfltui || op == OpSfgtsi || op == OpSfltsi:
		in.RA, in.Imm = reg(), simm16()
	case IsCompare(op):
		in.RA, in.RB = reg(), reg()
	default: // R-type ALU
		in.RD, in.RA, in.RB = reg(), reg(), reg()
	}
	return in
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range AllOps() {
		if op == OpInvalid {
			continue
		}
		for i := 0; i < 200; i++ {
			in := sampleInstr(op, rng)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%v: encode %+v: %v", op, in, err)
			}
			got := Decode(w)
			if got != in {
				t.Fatalf("%v round-trip: encoded %+v decoded %+v (word %08x)", op, in, got, w)
			}
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	// Primary opcode 0x3F is unassigned.
	if got := Decode(0xFFFFFFFF); got.Op != OpInvalid {
		t.Errorf("decode of garbage = %v, want invalid", got.Op)
	}
	// R-type with unknown sub-opcode.
	if got := Decode(0x38<<26 | 0xF); got.Op != OpInvalid {
		t.Errorf("bad rtype sub-op decoded to %v", got.Op)
	}
	// Compare with unknown code.
	if got := Decode(0x39<<26 | 0x1F<<21); got.Op != OpInvalid {
		t.Errorf("bad sf code decoded to %v", got.Op)
	}
}

func TestEncodeShiftRange(t *testing.T) {
	if _, err := Encode(Instr{Op: OpSlli, RD: 1, RA: 2, Imm: 32}); err == nil {
		t.Errorf("shift amount 32 must fail to encode")
	}
	if _, err := Encode(Instr{Op: OpSrai, RD: 1, RA: 2, Imm: -1}); err == nil {
		t.Errorf("negative shift must fail to encode")
	}
}

// refClassOf is the switch ClassOf was before it became a table.
func refClassOf(op Op) Class {
	switch op {
	case OpAdd, OpAddi:
		return ClassAdder
	case OpSub:
		return ClassSubber
	case OpMul, OpMuli:
		return ClassMul
	case OpAnd, OpOr, OpXor, OpAndi, OpOri, OpXori:
		return ClassLogic
	case OpSll, OpSrl, OpSra, OpSlli, OpSrli, OpSrai:
		return ClassShift
	case OpSfeq, OpSfne, OpSfgtu, OpSfgeu, OpSfltu, OpSfleu,
		OpSfgts, OpSfges, OpSflts, OpSfles,
		OpSfeqi, OpSfnei, OpSfgtui, OpSfltui, OpSfgtsi, OpSfltsi:
		return ClassCompare
	case OpMovhi:
		return ClassMovhi
	case OpLwz, OpLhz, OpLbz, OpSw, OpSh, OpSb:
		return ClassMem
	case OpJ, OpJal, OpJr, OpBf, OpBnf, OpSys:
		return ClassCtrl
	}
	return ClassNone
}

// TestClassTablesMatchSwitch pins the class and ALU tables against the
// switch they replaced on every op byte, valid or not.
func TestClassTablesMatchSwitch(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Op(b)
		want := refClassOf(op)
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
		alu := want == ClassAdder || want == ClassSubber || want == ClassMul ||
			want == ClassLogic || want == ClassShift || want == ClassCompare
		if IsALU(op) != alu {
			t.Errorf("IsALU(%v) = %v, want %v", op, IsALU(op), alu)
		}
	}
}

func TestClassPartitions(t *testing.T) {
	// Every op belongs to exactly one coherent class, and the ALU
	// predicate agrees with the class partition.
	for _, op := range AllOps() {
		if op == OpInvalid {
			continue
		}
		c := ClassOf(op)
		alu := c == ClassAdder || c == ClassSubber || c == ClassMul ||
			c == ClassLogic || c == ClassShift || c == ClassCompare
		if IsALU(op) != alu {
			t.Errorf("%v: IsALU=%v inconsistent with class %v", op, IsALU(op), c)
		}
		if IsLoad(op) && IsStore(op) {
			t.Errorf("%v cannot be both load and store", op)
		}
		if (IsLoad(op) || IsStore(op)) && c != ClassMem {
			t.Errorf("%v: memory op with class %v", op, c)
		}
	}
}

func TestSignExtension(t *testing.T) {
	in := Instr{Op: OpAddi, RD: 1, RA: 2, Imm: -1}
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(w); got.Imm != -1 {
		t.Errorf("addi imm -1 decoded to %d", got.Imm)
	}
	in = Instr{Op: OpSw, RA: 3, RB: 4, Imm: -4}
	w, err = Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(w); got.Imm != -4 || got.RA != 3 || got.RB != 4 {
		t.Errorf("sw -4(r3),r4 decoded to %+v", got)
	}
	in = Instr{Op: OpJ, Imm: -1000}
	w, err = Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := Decode(w); got.Imm != -1000 {
		t.Errorf("j -1000 decoded to %d", got.Imm)
	}
}

// Property: Decode never panics and always yields either OpInvalid or an
// instruction that re-encodes to a word that decodes to the same thing
// (encode/decode is idempotent on the decoded form).
func TestDecodeTotalProperty(t *testing.T) {
	f := func(w uint32) bool {
		in := Decode(w)
		if in.Op == OpInvalid {
			return true
		}
		w2, err := Encode(in)
		if err != nil {
			return false
		}
		return Decode(w2) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "l.add" {
		t.Errorf("OpAdd.String() = %q", OpAdd.String())
	}
	if OpSfgtsi.String() != "l.sfgtsi" {
		t.Errorf("OpSfgtsi.String() = %q", OpSfgtsi.String())
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, RD: 3, RA: 4, RB: 5}, "l.add r3,r4,r5"},
		{Instr{Op: OpLwz, RD: 3, RA: 4, Imm: 8}, "l.lwz r3,8(r4)"},
		{Instr{Op: OpSw, RA: 4, RB: 5, Imm: -4}, "l.sw -4(r4),r5"},
		{Instr{Op: OpSfgts, RA: 1, RB: 2}, "l.sfgts r1,r2"},
		{Instr{Op: OpSfgtsi, RA: 1, Imm: 10}, "l.sfgtsi r1,10"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
