package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordRoundTrip(t *testing.T) {
	m := New()
	if err := m.StoreWord(0x40000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.LoadWord(0x40000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Errorf("got %x", v)
	}
	// Big-endian layout.
	b, err := m.LoadByte(0x40000)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xDE {
		t.Errorf("first byte %x, want DE (big-endian)", b)
	}
}

func TestHalfAndByte(t *testing.T) {
	m := New()
	if err := m.StoreHalf(0x40002, 0x1234); err != nil {
		t.Fatal(err)
	}
	h, err := m.LoadHalf(0x40002)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0x1234 {
		t.Errorf("half = %x", h)
	}
	if err := m.StoreByte(0x40005, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, _ := m.LoadByte(0x40005)
	if b != 0xAB {
		t.Errorf("byte = %x", b)
	}
}

func TestAlignmentTraps(t *testing.T) {
	m := New()
	if _, err := m.LoadWord(2); err == nil {
		t.Errorf("misaligned word load must fail")
	}
	if err := m.StoreWord(3, 1); err == nil {
		t.Errorf("misaligned word store must fail")
	}
	if _, err := m.LoadHalf(1); err == nil {
		t.Errorf("misaligned half load must fail")
	}
	var ae *AccessError
	_, err := m.LoadWord(6)
	if !errors.As(err, &ae) {
		t.Fatalf("error type %T", err)
	}
	if ae.Write || ae.Size != 4 {
		t.Errorf("access error fields %+v", ae)
	}
}

func TestOutOfRange(t *testing.T) {
	m := New()
	end := m.Size()
	if _, err := m.LoadWord(end); err == nil {
		t.Errorf("load at end must fail")
	}
	if _, err := m.LoadWord(end - 4); err != nil {
		t.Errorf("last word should be accessible: %v", err)
	}
	if err := m.StoreWord(0xFFFFFFFC, 1); err == nil {
		t.Errorf("store far out of range must fail")
	}
	// Overflow robustness.
	if _, err := m.LoadWord(0xFFFFFFFE); err == nil {
		t.Errorf("wrapping access must fail")
	}
}

func TestCounters(t *testing.T) {
	m := New()
	_ = m.StoreWord(0x40000, 1)
	_, _ = m.LoadWord(0x40000)
	_, _ = m.LoadByte(0x40000)
	if m.Stores != 1 || m.Loads != 2 {
		t.Errorf("counters loads=%d stores=%d", m.Loads, m.Stores)
	}
	// Fetch and image loads don't count.
	_, _ = m.FetchWord(0x100)
	_ = m.LoadImage(0x100, []byte{1, 2, 3, 4})
	if m.Stores != 1 || m.Loads != 2 {
		t.Errorf("fetch/image affected counters")
	}
	m.Reset()
	if m.Loads != 0 || m.Stores != 0 {
		t.Errorf("reset did not clear counters")
	}
}

// Size returns the total number of bytes backed by the memory.
func (m *Memory) Size() uint32 { return uint32(len(m.bytes)) }

func TestBulkWords(t *testing.T) {
	m := New()
	in := []uint32{1, 2, 0xFFFFFFFF, 42}
	for i, w := range in {
		if err := m.StoreWord(0x41000+uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.ReadWords(0x41000, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("word %d = %x, want %x", i, out[i], in[i])
		}
	}
	if _, err := m.ReadWords(m.Size()-4, 2); err == nil {
		t.Errorf("overflowing bulk read must fail")
	}
}

// Property: a word store followed by a load returns the stored value for
// any in-range aligned address.
func TestStoreLoadProperty(t *testing.T) {
	m := New()
	f := func(addrRaw, v uint32) bool {
		addr := (addrRaw % (m.Size() - 4)) &^ 3
		if err := m.StoreWord(addr, v); err != nil {
			return false
		}
		got, err := m.LoadWord(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResetDirtyTracking drives random writes through every mutation
// path against a naive full-clear shadow memory and checks that the
// span-narrowed Reset restores the all-zero state exactly.
func TestResetDirtyTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New()
	for round := 0; round < 50; round++ {
		nWrites := rng.Intn(20)
		for i := 0; i < nWrites; i++ {
			addr := uint32(rng.Intn(int(m.Size())))
			switch rng.Intn(4) {
			case 0:
				m.StoreWord(addr&^3, rng.Uint32())
			case 1:
				m.StoreHalf(addr&^1, uint16(rng.Uint32()))
			case 2:
				m.StoreByte(addr, uint8(rng.Uint32()))
			case 3:
				img := make([]byte, rng.Intn(64))
				for j := range img {
					img[j] = byte(rng.Uint32())
				}
				if uint64(addr)+uint64(len(img)) <= uint64(m.Size()) {
					m.LoadImage(addr, img)
				}
			}
		}
		m.Reset()
		for addr := uint32(0); addr < m.Size(); addr += 4 {
			if v, _ := m.LoadWord(addr); v != 0 {
				t.Fatalf("round %d: byte at 0x%x nonzero after Reset: %#x", round, addr, v)
			}
		}
		m.Loads = 0 // the scan above counted loads
	}
}

// TestCloneFrom checks CloneFrom yields a byte-identical memory
// (counters included) regardless of what the destination held before,
// including destination dirt outside the source's dirty spans.
func TestCloneFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, dst := New(), New()

	// Dirty dst widely, including addresses src never touches.
	dst.StoreWord(0, 0xdeadbeef)
	dst.StoreWord(IMemSize-4, 0x12345678)
	dst.StoreWord(DMemBase, 0xa5a5a5a5)
	dst.StoreWord(DMemBase+DMemSize-4, 0x5a5a5a5a)

	// Populate src through a mix of paths.
	src.LoadImage(128, []byte{1, 2, 3, 4, 5})
	for i, w := range []uint32{9, 8, 7} {
		src.StoreWord(DMemBase+64+uint32(4*i), w)
	}
	for i := 0; i < 100; i++ {
		src.StoreWord(DMemBase+uint32(rng.Intn(1024))*4, rng.Uint32())
	}
	src.LoadWord(DMemBase + 64)

	dst.CloneFrom(src)
	for addr := uint32(0); addr < src.Size(); addr += 4 {
		a, _ := src.FetchWord(addr)
		b, _ := dst.FetchWord(addr)
		if a != b {
			t.Fatalf("word at 0x%x differs after CloneFrom: src %#x dst %#x", addr, a, b)
		}
	}
	if dst.Loads != src.Loads || dst.Stores != src.Stores {
		t.Fatalf("counters differ: dst (%d,%d) src (%d,%d)", dst.Loads, dst.Stores, src.Loads, src.Stores)
	}

	// The clone must stay consistent across a further Reset.
	dst.Reset()
	for addr := uint32(0); addr < dst.Size(); addr += 4 {
		if v, _ := dst.FetchWord(addr); v != 0 {
			t.Fatalf("byte at 0x%x nonzero after post-clone Reset: %#x", addr, v)
		}
	}
}
