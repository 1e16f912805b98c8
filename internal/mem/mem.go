// Package mem models the single-cycle SRAM macros attached to the
// simulated core: a big-endian, word-addressable flat memory with separate
// instruction and data regions, alignment checking, and simple access
// accounting. The paper's core uses single-cycle instruction and data
// SRAMs, so no wait states are modelled.
//
// mem is a leaf of the dependency graph; cpu executes against it,
// bench extracts kernel outputs from it, and the mc engine keeps one
// worker-private Memory per goroutine.
package mem

import "fmt"

// Region boundaries of the default memory map. The text segment of the
// assembler lands in the instruction region, .data in the data region.
const (
	IMemBase = 0x00000000
	IMemSize = 0x00040000 // 256 KiB instruction SRAM
	DMemBase = 0x00040000
	DMemSize = 0x00040000 // 256 KiB data SRAM
)

// AccessError reports an out-of-range or misaligned access. The simulator
// converts it into a bus-error trap, which ends a faulty run.
type AccessError struct {
	Addr  uint32
	Size  int
	Write bool
	Why   string
}

func (e *AccessError) Error() string {
	kind := "load"
	if e.Write {
		kind = "store"
	}
	return fmt.Sprintf("mem: %s of %d bytes at 0x%08x: %s", kind, e.Size, e.Addr, e.Why)
}

// span is a half-open dirty byte range [lo, hi). The zero value is the
// empty span.
type span struct{ lo, hi uint32 }

func (s *span) add(lo, hi uint32) {
	if s.lo >= s.hi {
		s.lo, s.hi = lo, hi
		return
	}
	if lo < s.lo {
		s.lo = lo
	}
	if hi > s.hi {
		s.hi = hi
	}
}

// Memory is the unified memory of the simulated system.
type Memory struct {
	bytes []byte

	// dirty holds per-region watermarks of possibly-nonzero bytes
	// (index 0: instruction SRAM, 1: data SRAM). Every byte outside the
	// dirty spans is zero, which lets Reset and CloneFrom touch only the
	// written ranges instead of the full 512 KiB — the difference
	// between a ~12 µs memclr and a sub-microsecond one per fault trial.
	dirty [2]span

	// Access statistics, useful for benchmark characterization.
	Loads  uint64
	Stores uint64
}

// New returns a zeroed memory covering both SRAM regions.
func New() *Memory {
	return &Memory{bytes: make([]byte, IMemSize+DMemSize)}
}

// mark records [lo, hi) as written, splitting at the region boundary.
// Aligned word/half/byte accesses never straddle it; only LoadImage can.
func (m *Memory) mark(lo, hi uint32) {
	if lo < DMemBase {
		end := hi
		if end > DMemBase {
			end = DMemBase
		}
		m.dirty[0].add(lo, end)
	}
	if hi > DMemBase {
		start := lo
		if start < DMemBase {
			start = DMemBase
		}
		m.dirty[1].add(start, hi)
	}
}

// Reset zeroes the memory and the access counters. Only the dirty spans
// are cleared; everything else is zero by invariant.
func (m *Memory) Reset() {
	for i, d := range m.dirty {
		if d.lo < d.hi {
			clear(m.bytes[d.lo:d.hi])
		}
		m.dirty[i] = span{}
	}
	m.Loads, m.Stores = 0, 0
}

// CloneFrom makes m byte-identical to src, including access counters.
// Cost is proportional to the union of both memories' dirty spans, not
// the full address space — the copy-on-write primitive behind batched
// fault trials, where one walker image is cloned per forked trial.
func (m *Memory) CloneFrom(src *Memory) {
	for i := range m.dirty {
		d, s := m.dirty[i], src.dirty[i]
		// Zero whatever m dirtied outside src's span, then copy src's.
		if d.lo < d.hi {
			clear(m.bytes[d.lo:d.hi])
		}
		if s.lo < s.hi {
			copy(m.bytes[s.lo:s.hi], src.bytes[s.lo:s.hi])
		}
		m.dirty[i] = s
	}
	m.Loads, m.Stores = src.Loads, src.Stores
}

func (m *Memory) check(addr uint32, size int, write bool) error {
	if uint64(addr)+uint64(size) > uint64(len(m.bytes)) {
		return &AccessError{Addr: addr, Size: size, Write: write, Why: "out of range"}
	}
	if addr%uint32(size) != 0 {
		return &AccessError{Addr: addr, Size: size, Write: write, Why: "misaligned"}
	}
	return nil
}

// LoadWord reads a big-endian 32-bit word.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	m.Loads++
	b := m.bytes[addr:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// LoadHalf reads a big-endian 16-bit halfword (zero-extended by the CPU).
func (m *Memory) LoadHalf(addr uint32) (uint16, error) {
	if err := m.check(addr, 2, false); err != nil {
		return 0, err
	}
	m.Loads++
	b := m.bytes[addr:]
	return uint16(b[0])<<8 | uint16(b[1]), nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) (uint8, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	m.Loads++
	return m.bytes[addr], nil
}

// StoreWord writes a big-endian 32-bit word.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if err := m.check(addr, 4, true); err != nil {
		return err
	}
	m.Stores++
	m.mark(addr, addr+4)
	b := m.bytes[addr:]
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return nil
}

// StoreHalf writes a big-endian 16-bit halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if err := m.check(addr, 2, true); err != nil {
		return err
	}
	m.Stores++
	m.mark(addr, addr+2)
	b := m.bytes[addr:]
	b[0], b[1] = byte(v>>8), byte(v)
	return nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v uint8) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	m.Stores++
	m.mark(addr, addr+1)
	m.bytes[addr] = v
	return nil
}

// FetchWord reads an instruction word. Fetches are not counted as data
// loads.
func (m *Memory) FetchWord(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	b := m.bytes[addr:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// LoadImage copies a byte image to base without touching the counters;
// used by the program loader.
func (m *Memory) LoadImage(base uint32, img []byte) error {
	if uint64(base)+uint64(len(img)) > uint64(len(m.bytes)) {
		return &AccessError{Addr: base, Size: len(img), Write: true, Why: "image out of range"}
	}
	if len(img) > 0 {
		m.mark(base, base+uint32(len(img)))
	}
	copy(m.bytes[base:], img)
	return nil
}

// ReadWords bulk-reads n words starting at base; used by benchmark output
// extraction. It bypasses the access counters.
func (m *Memory) ReadWords(base uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		if err := m.check(base+uint32(4*i), 4, false); err != nil {
			return nil, err
		}
		b := m.bytes[base+uint32(4*i):]
		out[i] = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return out, nil
}
