// Delta codec for golden traces.
//
// A recorded Trace is dominated by its ALU event stream, whose fields
// are highly redundant: Prev almost always chains from the previous
// event's Result, Result is usually near operand A, store addresses
// walk small strides, and checkpoints are snapshots of monotonically
// growing counters. EncodeTrace exploits all of that with a
// varint/zigzag delta encoding plus a DEFLATE pass, shrinking persisted
// golden traces by well over the 2x the artifact-store tests pin,
// while DecodeTrace round-trips bit-exactly. internal/core stores
// encoded traces under the same artifact key as the legacy gob blobs;
// a payload without the magic prefix is a miss and is re-recorded.

package cpu

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// traceMagic prefixes delta-encoded traces; legacy gob payloads start
// with a gob type descriptor and can never collide with it.
const traceMagic = "FTRD1"

// EncodeTrace serializes a trace into the delta format.
func EncodeTrace(t *Trace) ([]byte, error) {
	if isa.NumOps > 64 {
		return nil, fmt.Errorf("cpu: op space outgrew the 6-bit event encoding")
	}
	body := make([]byte, 0, 8*len(t.Events))
	put := func(v uint64) { body = binary.AppendUvarint(body, v) }
	puts := func(v int64) { body = binary.AppendVarint(body, v) }

	put(t.CheckpointEvery)
	put(t.Cycles)
	put(t.KernelCycles)
	put(t.KernelALUCycles)
	put(t.Retired)
	body = append(body, byte(t.Status))
	put(uint64(len(t.Events)))
	put(uint64(len(t.Stores)))
	put(uint64(len(t.Checkpoints)))

	prevResult, chainSeeded := uint32(0), false
	for _, ev := range t.Events {
		b0 := byte(ev.Op) & 0x3f
		chained := chainSeeded && ev.Prev == prevResult
		if chained {
			b0 |= 1 << 6
		}
		b1 := ev.RD & 0x1f
		if ev.Flag {
			b1 |= 1 << 5
		}
		if ev.PrevFlag {
			b1 |= 1 << 6
		}
		body = append(body, b0, b1)
		put(uint64(ev.A))
		put(uint64(ev.B))
		puts(int64(int32(ev.Result - ev.A)))
		if !chained {
			put(uint64(ev.Prev))
		}
		prevResult, chainSeeded = ev.Result, true
	}

	prevAddr := uint32(0)
	for _, s := range t.Stores {
		body = append(body, s.Size)
		puts(int64(int32(s.Addr - prevAddr)))
		put(uint64(s.Val))
		prevAddr = s.Addr
	}

	var prev Checkpoint
	for _, cp := range t.Checkpoints {
		put(cp.Cycles - prev.Cycles)
		put(cp.KernelCycles - prev.KernelCycles)
		put(cp.KernelALUCycles - prev.KernelALUCycles)
		put(cp.Retired - prev.Retired)
		put(uint64(cp.EventIndex - prev.EventIndex))
		put(uint64(cp.StoreIndex - prev.StoreIndex))
		put(cp.Loads - prev.Loads)
		put(cp.Stores - prev.Stores)
		for i := range cp.OpCounts {
			put(cp.OpCounts[i] - prev.OpCounts[i])
		}
		var mask uint32
		for i, r := range cp.Regs {
			if r != prev.Regs[i] {
				mask |= 1 << i
			}
		}
		put(uint64(mask))
		for i, r := range cp.Regs {
			if mask&(1<<i) != 0 {
				put(uint64(r))
			}
		}
		put(uint64(cp.PC))
		put(uint64(cp.PrevEXResult))
		var fl byte
		if cp.Flag {
			fl |= 1
		}
		if cp.PrevFlag {
			fl |= 2
		}
		if cp.LastWasLoad {
			fl |= 4
		}
		if cp.InWindow {
			fl |= 8
		}
		body = append(body, fl, cp.LastLoadRD)
		prev = cp
	}

	var out bytes.Buffer
	out.WriteString(traceMagic)
	zw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(body); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeTrace parses a delta-encoded trace. Payloads without the magic
// prefix (or any truncated/corrupt body) yield an error; callers treat
// that as a cache miss.
func DecodeTrace(b []byte) (*Trace, error) {
	if len(b) < len(traceMagic) || string(b[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("cpu: not a delta-encoded trace")
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(b[len(traceMagic):])))
	if err != nil {
		return nil, fmt.Errorf("cpu: inflating trace: %w", err)
	}
	r := bytes.NewReader(body)
	var firstErr error
	get := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	gets := func() int64 {
		v, err := binary.ReadVarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	getb := func() byte {
		v, err := r.ReadByte()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}

	t := &Trace{}
	t.CheckpointEvery = get()
	t.Cycles = get()
	t.KernelCycles = get()
	t.KernelALUCycles = get()
	t.Retired = get()
	t.Status = Status(getb())
	nEvents, nStores, nCkpts := get(), get(), get()
	if firstErr != nil {
		return nil, fmt.Errorf("cpu: truncated trace header: %w", firstErr)
	}
	const maxCount = 1 << 30 // sanity bound against corrupt headers
	if nEvents > maxCount || nStores > maxCount || nCkpts > maxCount {
		return nil, fmt.Errorf("cpu: implausible trace counts %d/%d/%d", nEvents, nStores, nCkpts)
	}

	if nEvents > 0 {
		t.Events = make([]TraceEvent, nEvents)
	}
	prevResult := uint32(0)
	for i := range t.Events {
		b0, b1 := getb(), getb()
		ev := &t.Events[i]
		ev.Op = isa.Op(b0 & 0x3f)
		ev.RD = b1 & 0x1f
		ev.Flag = b1&(1<<5) != 0
		ev.PrevFlag = b1&(1<<6) != 0
		ev.A = uint32(get())
		ev.B = uint32(get())
		ev.Result = ev.A + uint32(gets())
		if b0&(1<<6) != 0 {
			ev.Prev = prevResult
		} else {
			ev.Prev = uint32(get())
		}
		prevResult = ev.Result
	}

	if nStores > 0 {
		t.Stores = make([]StoreRec, nStores)
	}
	prevAddr := uint32(0)
	for i := range t.Stores {
		s := &t.Stores[i]
		s.Size = getb()
		s.Addr = prevAddr + uint32(gets())
		s.Val = uint32(get())
		prevAddr = s.Addr
	}

	if nCkpts > 0 {
		t.Checkpoints = make([]Checkpoint, nCkpts)
	}
	var prev Checkpoint
	for i := range t.Checkpoints {
		cp := &t.Checkpoints[i]
		cp.Cycles = prev.Cycles + get()
		cp.KernelCycles = prev.KernelCycles + get()
		cp.KernelALUCycles = prev.KernelALUCycles + get()
		cp.Retired = prev.Retired + get()
		cp.EventIndex = prev.EventIndex + int(get())
		cp.StoreIndex = prev.StoreIndex + int(get())
		cp.Loads = prev.Loads + get()
		cp.Stores = prev.Stores + get()
		for j := range cp.OpCounts {
			cp.OpCounts[j] = prev.OpCounts[j] + get()
		}
		mask := uint32(get())
		cp.Regs = prev.Regs
		for j := range cp.Regs {
			if mask&(1<<j) != 0 {
				cp.Regs[j] = uint32(get())
			}
		}
		cp.PC = uint32(get())
		cp.PrevEXResult = uint32(get())
		fl := getb()
		cp.Flag = fl&1 != 0
		cp.PrevFlag = fl&2 != 0
		cp.LastWasLoad = fl&4 != 0
		cp.InWindow = fl&8 != 0
		cp.LastLoadRD = getb()
		prev = *cp
	}
	if firstErr != nil {
		return nil, fmt.Errorf("cpu: truncated trace body: %w", firstErr)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("cpu: %d trailing bytes after trace body", r.Len())
	}
	return t, nil
}
