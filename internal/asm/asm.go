// Package asm implements a two-pass assembler for the simulator's
// OpenRISC-flavoured assembly dialect (see internal/isa).
//
// Syntax:
//
//	; comment            # comment
//	label:
//	    l.addi  r3,r0,42
//	    l.lwz   r4,0(r3)
//	    l.sw    4(r3),r4
//	    l.bf    loop
//	    l.movhi r5,hi(table)
//	    l.ori   r5,r5,lo(table)
//	.text                 ; switch to the text section (default)
//	.data                 ; switch to the data section
//	.org  0x40000         ; set the location counter of this section
//	.word 1, 2, -3        ; 32-bit big-endian words
//	.half 1, 2            ; 16-bit values
//	.byte 1, 2            ; bytes
//	.space 64             ; zero-filled gap
//	.align 4              ; pad to a multiple of 4
//
// Immediates are decimal or 0x-hex, optionally negative. hi(sym) and
// lo(sym) extract the upper and lower halves of a symbol address for
// l.movhi / l.ori address formation. Branch and jump targets are labels
// (resolved to pc-relative word offsets) or explicit numeric offsets.
//
// In the dependency graph, asm sits directly above internal/isa (the
// instruction encodings) and below the execution layers: bench
// assembles its kernels with it, and cpu loads the resulting Programs.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Default section base addresses. The text base doubles as the reset
// vector of the simulated core.
const (
	DefaultTextBase = 0x0000100
	DefaultDataBase = 0x0040000
)

// Program is the output of the assembler: two loadable segments plus the
// symbol table.
type Program struct {
	Entry   uint32
	Text    Segment
	Data    Segment
	Symbols map[string]uint32
}

// Segment is a contiguous byte image to be loaded at Base.
type Segment struct {
	Base  uint32
	Bytes []byte
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section struct {
	base    uint32
	baseSet bool
	pc      uint32 // location counter relative to base start? absolute.
	bytes   []byte
}

type fixup struct {
	line    int
	section *section
	offset  uint32 // byte offset of the word within the section
	kind    fixKind
	symbol  string
	addend  int32
}

type fixKind uint8

const (
	fixBranch fixKind = iota // 26-bit pc-relative word offset
	fixHi                    // upper 16 bits of the symbol address
	fixLo                    // lower 16 bits of the symbol address
	fixWord                  // full 32-bit symbol address (.word label)
)

type assembler struct {
	text, data *section
	cur        *section
	symbols    map[string]uint32
	fixups     []fixup
	line       int
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble translates source text into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		text:    &section{base: DefaultTextBase},
		data:    &section{base: DefaultDataBase},
		symbols: map[string]uint32{},
	}
	a.cur = a.text
	a.text.pc = a.text.base
	a.data.pc = a.data.base

	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.doLine(raw); err != nil {
			return nil, err
		}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	p := &Program{
		Entry:   a.text.base,
		Text:    Segment{Base: a.text.base, Bytes: a.text.bytes},
		Data:    Segment{Base: a.data.base, Bytes: a.data.bytes},
		Symbols: a.symbols,
	}
	return p, nil
}

func stripComment(s string) string {
	for i, r := range s {
		if r == ';' || r == '#' {
			return s[:i]
		}
	}
	return s
}

func (a *assembler) doLine(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	for {
		if s == "" {
			return nil
		}
		// Labels; multiple labels per line are permitted.
		if i := strings.Index(s, ":"); i >= 0 && isIdent(strings.TrimSpace(s[:i])) {
			name := strings.TrimSpace(s[:i])
			if _, dup := a.symbols[name]; dup {
				return a.errf("duplicate label %q", name)
			}
			a.symbols[name] = a.cur.pc
			s = strings.TrimSpace(s[i+1:])
			continue
		}
		break
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	return a.instruction(s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' && i > 0 ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9' && i > 0
		if !ok {
			return false
		}
	}
	return true
}

func (a *assembler) emit32(v uint32) {
	a.cur.bytes = append(a.cur.bytes,
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	a.cur.pc += 4
}

func (a *assembler) emit16(v uint16) {
	a.cur.bytes = append(a.cur.bytes, byte(v>>8), byte(v))
	a.cur.pc += 2
}

func (a *assembler) emit8(v uint8) {
	a.cur.bytes = append(a.cur.bytes, v)
	a.cur.pc++
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (a *assembler) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".text":
		a.cur = a.text
	case ".data":
		a.cur = a.data
	case ".global", ".globl", ".type", ".size":
		// Accepted and ignored for source compatibility.
	case ".org":
		v, err := a.parseInt(rest)
		if err != nil {
			return err
		}
		addr := uint32(v)
		if len(a.cur.bytes) == 0 && !a.cur.baseSet {
			a.cur.base = addr
			a.cur.baseSet = true
			a.cur.pc = addr
			return nil
		}
		if addr < a.cur.pc {
			return a.errf(".org 0x%x moves backwards (pc 0x%x)", addr, a.cur.pc)
		}
		for a.cur.pc < addr {
			a.emit8(0)
		}
	case ".word":
		for _, f := range splitArgs(rest) {
			if isIdent(f) {
				a.fixups = append(a.fixups, fixup{
					line: a.line, section: a.cur,
					offset: uint32(len(a.cur.bytes)), kind: fixWord, symbol: f,
				})
				a.emit32(0)
				continue
			}
			v, err := a.parseInt(f)
			if err != nil {
				return err
			}
			a.emit32(uint32(v))
		}
	case ".half":
		for _, f := range splitArgs(rest) {
			v, err := a.parseInt(f)
			if err != nil {
				return err
			}
			if v < -0x8000 || v > 0xFFFF {
				return a.errf(".half value %d out of range", v)
			}
			a.emit16(uint16(v))
		}
	case ".byte":
		for _, f := range splitArgs(rest) {
			v, err := a.parseInt(f)
			if err != nil {
				return err
			}
			if v < -0x80 || v > 0xFF {
				return a.errf(".byte value %d out of range", v)
			}
			a.emit8(uint8(v))
		}
	case ".space":
		v, err := a.parseInt(rest)
		if err != nil {
			return err
		}
		if v < 0 {
			return a.errf(".space negative size")
		}
		for i := int64(0); i < v; i++ {
			a.emit8(0)
		}
	case ".align":
		v, err := a.parseInt(rest)
		if err != nil {
			return err
		}
		if v <= 0 || v&(v-1) != 0 {
			return a.errf(".align requires a positive power of two")
		}
		for a.cur.pc%uint32(v) != 0 {
			a.emit8(0)
		}
	default:
		return a.errf("unknown directive %s", name)
	}
	return nil
}

func (a *assembler) parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf("expected number")
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 32)
	} else {
		v, err = strconv.ParseUint(s, 10, 32)
	}
	if err != nil {
		return 0, a.errf("bad number %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func parseReg(s string) (uint8, bool) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, false
	}
	return uint8(n), true
}

// parseMem parses "imm(rA)" operands.
func (a *assembler) parseMem(s string) (imm int32, ra uint8, err error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return 0, 0, a.errf("bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	if immStr == "" {
		immStr = "0"
	}
	v, err := a.parseInt(immStr)
	if err != nil {
		return 0, 0, err
	}
	if v < -0x8000 || v > 0x7FFF {
		return 0, 0, a.errf("memory offset %d out of range", v)
	}
	r, ok := parseReg(strings.TrimSpace(s[open+1 : close]))
	if !ok {
		return 0, 0, a.errf("bad base register in %q", s)
	}
	return int32(v), r, nil
}

// immOrFixup handles plain immediates plus hi(sym)/lo(sym).
func (a *assembler) immOrFixup(s string, signed bool) (int32, error) {
	if strings.HasPrefix(s, "hi(") && strings.HasSuffix(s, ")") {
		sym := strings.TrimSpace(s[3 : len(s)-1])
		a.fixups = append(a.fixups, fixup{
			line: a.line, section: a.cur,
			offset: uint32(len(a.cur.bytes)), kind: fixHi, symbol: sym,
		})
		return 0, nil
	}
	if strings.HasPrefix(s, "lo(") && strings.HasSuffix(s, ")") {
		sym := strings.TrimSpace(s[3 : len(s)-1])
		a.fixups = append(a.fixups, fixup{
			line: a.line, section: a.cur,
			offset: uint32(len(a.cur.bytes)), kind: fixLo, symbol: sym,
		})
		return 0, nil
	}
	v, err := a.parseInt(s)
	if err != nil {
		return 0, err
	}
	if signed {
		if v < -0x8000 || v > 0x7FFF {
			return 0, a.errf("signed immediate %d out of range", v)
		}
	} else if v < 0 || v > 0xFFFF {
		return 0, a.errf("unsigned immediate %d out of range", v)
	}
	return int32(v), nil
}

var regOps = map[string]isa.Op{
	"l.add": isa.OpAdd, "l.sub": isa.OpSub, "l.mul": isa.OpMul,
	"l.and": isa.OpAnd, "l.or": isa.OpOr, "l.xor": isa.OpXor,
	"l.sll": isa.OpSll, "l.srl": isa.OpSrl, "l.sra": isa.OpSra,
}

var immOps = map[string]isa.Op{
	"l.addi": isa.OpAddi, "l.muli": isa.OpMuli, "l.andi": isa.OpAndi,
	"l.ori": isa.OpOri, "l.xori": isa.OpXori,
	"l.slli": isa.OpSlli, "l.srli": isa.OpSrli, "l.srai": isa.OpSrai,
}

var sfRegOps = map[string]isa.Op{
	"l.sfeq": isa.OpSfeq, "l.sfne": isa.OpSfne,
	"l.sfgtu": isa.OpSfgtu, "l.sfgeu": isa.OpSfgeu,
	"l.sfltu": isa.OpSfltu, "l.sfleu": isa.OpSfleu,
	"l.sfgts": isa.OpSfgts, "l.sfges": isa.OpSfges,
	"l.sflts": isa.OpSflts, "l.sfles": isa.OpSfles,
}

var sfImmOps = map[string]isa.Op{
	"l.sfeqi": isa.OpSfeqi, "l.sfnei": isa.OpSfnei,
	"l.sfgtui": isa.OpSfgtui, "l.sfltui": isa.OpSfltui,
	"l.sfgtsi": isa.OpSfgtsi, "l.sfltsi": isa.OpSfltsi,
}

var loadOps = map[string]isa.Op{
	"l.lwz": isa.OpLwz, "l.lhz": isa.OpLhz, "l.lbz": isa.OpLbz,
}

var storeOps = map[string]isa.Op{
	"l.sw": isa.OpSw, "l.sh": isa.OpSh, "l.sb": isa.OpSb,
}

var branchOps = map[string]isa.Op{
	"l.j": isa.OpJ, "l.jal": isa.OpJal, "l.bf": isa.OpBf, "l.bnf": isa.OpBnf,
}

func (a *assembler) instruction(s string) error {
	mnem, rest, _ := strings.Cut(s, " ")
	mnem = strings.ToLower(strings.TrimSpace(mnem))
	args := splitArgs(rest)
	need := func(n int) error {
		if len(args) != n {
			return a.errf("%s expects %d operands, got %d", mnem, n, len(args))
		}
		return nil
	}
	emit := func(in isa.Instr) error {
		w, err := isa.Encode(in)
		if err != nil {
			return a.errf("%v", err)
		}
		a.emit32(w)
		return nil
	}

	if op, ok := regOps[mnem]; ok {
		if err := need(3); err != nil {
			return err
		}
		rd, ok1 := parseReg(args[0])
		ra, ok2 := parseReg(args[1])
		rb, ok3 := parseReg(args[2])
		if !ok1 || !ok2 || !ok3 {
			return a.errf("%s: bad register operands", mnem)
		}
		return emit(isa.Instr{Op: op, RD: rd, RA: ra, RB: rb})
	}
	if op, ok := immOps[mnem]; ok {
		if err := need(3); err != nil {
			return err
		}
		rd, ok1 := parseReg(args[0])
		ra, ok2 := parseReg(args[1])
		if !ok1 || !ok2 {
			return a.errf("%s: bad register operands", mnem)
		}
		signed := op == isa.OpAddi || op == isa.OpMuli || op == isa.OpXori
		if op == isa.OpSlli || op == isa.OpSrli || op == isa.OpSrai {
			v, err := a.parseInt(args[2])
			if err != nil {
				return err
			}
			return emit(isa.Instr{Op: op, RD: rd, RA: ra, Imm: int32(v)})
		}
		imm, err := a.immOrFixup(args[2], signed)
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: op, RD: rd, RA: ra, Imm: imm})
	}
	if op, ok := sfRegOps[mnem]; ok {
		if err := need(2); err != nil {
			return err
		}
		ra, ok1 := parseReg(args[0])
		rb, ok2 := parseReg(args[1])
		if !ok1 || !ok2 {
			return a.errf("%s: bad register operands", mnem)
		}
		return emit(isa.Instr{Op: op, RA: ra, RB: rb})
	}
	if op, ok := sfImmOps[mnem]; ok {
		if err := need(2); err != nil {
			return err
		}
		ra, ok1 := parseReg(args[0])
		if !ok1 {
			return a.errf("%s: bad register operand", mnem)
		}
		imm, err := a.immOrFixup(args[1], true)
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: op, RA: ra, Imm: imm})
	}
	if op, ok := loadOps[mnem]; ok {
		if err := need(2); err != nil {
			return err
		}
		rd, ok1 := parseReg(args[0])
		if !ok1 {
			return a.errf("%s: bad destination register", mnem)
		}
		imm, ra, err := a.parseMem(args[1])
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: op, RD: rd, RA: ra, Imm: imm})
	}
	if op, ok := storeOps[mnem]; ok {
		if err := need(2); err != nil {
			return err
		}
		imm, ra, err := a.parseMem(args[0])
		if err != nil {
			return err
		}
		rb, ok1 := parseReg(args[1])
		if !ok1 {
			return a.errf("%s: bad source register", mnem)
		}
		return emit(isa.Instr{Op: op, RA: ra, RB: rb, Imm: imm})
	}
	if op, ok := branchOps[mnem]; ok {
		if err := need(1); err != nil {
			return err
		}
		t := args[0]
		if isIdent(t) {
			a.fixups = append(a.fixups, fixup{
				line: a.line, section: a.cur,
				offset: uint32(len(a.cur.bytes)), kind: fixBranch, symbol: t,
			})
			return emit(isa.Instr{Op: op, Imm: 0})
		}
		v, err := a.parseInt(t)
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: op, Imm: int32(v)})
	}
	switch mnem {
	case "l.jr":
		if err := need(1); err != nil {
			return err
		}
		rb, ok := parseReg(args[0])
		if !ok {
			return a.errf("l.jr: bad register")
		}
		return emit(isa.Instr{Op: isa.OpJr, RB: rb})
	case "l.movhi":
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(args[0])
		if !ok {
			return a.errf("l.movhi: bad register")
		}
		imm, err := a.immOrFixup(args[1], false)
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: isa.OpMovhi, RD: rd, Imm: imm})
	case "l.nop":
		if len(args) > 1 {
			return a.errf("l.nop takes at most one operand")
		}
		var imm int32
		if len(args) == 1 {
			v, err := a.parseInt(args[0])
			if err != nil {
				return err
			}
			imm = int32(v)
		}
		return emit(isa.Instr{Op: isa.OpNop, Imm: imm})
	case "l.sys":
		if err := need(1); err != nil {
			return err
		}
		v, err := a.parseInt(args[0])
		if err != nil {
			return err
		}
		return emit(isa.Instr{Op: isa.OpSys, Imm: int32(v)})
	}
	return a.errf("unknown mnemonic %q", mnem)
}

func (a *assembler) resolve() error {
	for _, f := range a.fixups {
		addr, ok := a.symbols[f.symbol]
		if !ok {
			return &Error{Line: f.line, Msg: fmt.Sprintf("undefined symbol %q", f.symbol)}
		}
		b := f.section.bytes[f.offset : f.offset+4]
		w := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		switch f.kind {
		case fixBranch:
			pc := f.section.base + f.offset
			diff := int64(addr) - int64(pc)
			if diff%4 != 0 {
				return &Error{Line: f.line, Msg: "branch target not word aligned"}
			}
			words := diff / 4
			if words < -(1<<25) || words >= 1<<25 {
				return &Error{Line: f.line, Msg: "branch target out of range"}
			}
			w = w&0xFC000000 | uint32(words)&0x03FFFFFF
		case fixHi:
			w = w&0xFFFF0000 | addr>>16
		case fixLo:
			w = w&0xFFFF0000 | addr&0xFFFF
		case fixWord:
			w = addr + uint32(f.addend)
		}
		b[0], b[1], b[2], b[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	}
	return nil
}
