// Delta codec for golden traces.
//
// A recorded Trace is dominated by its ALU event stream, whose fields
// are highly redundant: Prev almost always chains from the previous
// event's Result, store addresses walk small strides, and checkpoints
// are snapshots of monotonically growing counters. EncodeTrace exploits
// that with a varint/zigzag delta encoding plus a DEFLATE pass,
// shrinking persisted golden traces by well over the 2x the
// artifact-store tests pin, while DecodeTrace round-trips bit-exactly.
// The magic prefix is the format version: internal/core keeps one
// artifact key across versions, so a payload without the current magic
// (an older format or a gob blob) is a miss and is re-recorded.
// DecodeTrace is total: a corrupt payload yields an error, never a
// panic, and never an allocation larger than its inflated body could
// describe.

package cpu

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// traceMagic prefixes delta-encoded traces and names their format
// version: a blob of another version (FTRD1 events also carried
// operands) fails to decode, and gob payloads start with a gob type
// descriptor and can never collide with it.
const traceMagic = "FTRD2"

// Minimum encoded record sizes, which bound the counts a header may
// claim: an event is two header bytes and a Result varint; a store a
// size byte and two varints; a checkpoint one varint per counter, op
// count, register mask, PC and PrevEXResult, and two flag bytes.
const minEventBytes, minStoreBytes, minCkptBytes = 3, 3, 8 + uint64(isa.NumOps) + 3 + 2

// bit is 1 for true, 0 for false: the codec's flag-packing unit.
func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

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
		chained := chainSeeded && ev.Prev == prevResult
		body = append(body, byte(ev.Op)&0x3f|bit(chained)<<6, bit(ev.Flag)|bit(ev.PrevFlag)<<1)
		put(uint64(ev.Result))
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
		fl := bit(cp.Flag) | bit(cp.PrevFlag)<<1 | bit(cp.LastWasLoad)<<2 | bit(cp.InWindow)<<3
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
// prefix, truncated or corrupt bodies, counts the body cannot hold,
// events whose op is not an ALU op, and checkpoints whose event or
// store index runs backwards or past its log all yield an error;
// callers treat that as a cache miss.
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
	// Each count is checked against the body before the products are
	// formed, so the sum cannot overflow.
	left := uint64(r.Len())
	if nEvents > left || nStores > left || nCkpts > left ||
		nEvents*minEventBytes+nStores*minStoreBytes+nCkpts*minCkptBytes > left {
		return nil, fmt.Errorf("cpu: trace counts %d/%d/%d exceed a %d-byte body", nEvents, nStores, nCkpts, left)
	}

	if nEvents > 0 {
		t.Events = make([]TraceEvent, nEvents)
	}
	prevResult := uint32(0)
	for i := 0; i < len(t.Events) && firstErr == nil; i++ {
		b0, b1 := getb(), getb()
		ev := &t.Events[i]
		ev.Op = isa.Op(b0 & 0x3f)
		if !isa.IsALU(ev.Op) && firstErr == nil {
			return nil, fmt.Errorf("cpu: trace event %d: op %d is not an ALU op", i, ev.Op)
		}
		ev.Flag = b1&1 != 0
		ev.PrevFlag = b1&2 != 0
		ev.Result = uint32(get())
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
	for i := 0; i < len(t.Stores) && firstErr == nil; i++ {
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
	for i := 0; i < len(t.Checkpoints) && firstErr == nil; i++ {
		cp := &t.Checkpoints[i]
		cp.Cycles = prev.Cycles + get()
		cp.KernelCycles = prev.KernelCycles + get()
		cp.KernelALUCycles = prev.KernelALUCycles + get()
		cp.Retired = prev.Retired + get()
		dEvents, dStores := get(), get()
		if dEvents > uint64(len(t.Events)-prev.EventIndex) || dStores > uint64(len(t.Stores)-prev.StoreIndex) {
			return nil, fmt.Errorf("cpu: trace checkpoint %d: event/store index past its log", i)
		}
		cp.EventIndex = prev.EventIndex + int(dEvents)
		cp.StoreIndex = prev.StoreIndex + int(dStores)
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
