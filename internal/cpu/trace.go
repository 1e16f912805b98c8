// Golden-trace recording and checkpoint/restore.
//
// One fault-free execution per (program, timing config) can be recorded
// as a Trace: the injector query of every FI-eligible ALU cycle (the op
// and the EX endpoint values the fault-injection models consume), the
// data-memory store log, and periodic architectural checkpoints. A
// Monte-Carlo trial can then be decided against the trace alone — below
// the point of first failure the vast majority of trials never flip a
// bit and are bit-for-bit the golden run — and, when a fault does fire,
// full simulation resumes from the nearest checkpoint via Restore
// instead of from the reset vector. The replay machinery on top of this
// lives in internal/fi (which reads the events directly as its query
// stream) and internal/mc (trial dispatch).

package cpu

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
)

// DefaultCheckpointInterval is the default cycle spacing between trace
// checkpoints: small enough that a fork re-executes only a tiny prefix
// before the first fault, large enough that checkpoints stay a rounding
// error next to the recorded ALU events.
const DefaultCheckpointInterval = 4096

// TraceEvent records one FI-eligible ALU cycle of a golden run: exactly
// the arguments the core hands to Injector.Inject on that cycle — the
// op in EX, its fault-free result and flag, and the EX endpoint latch
// values of the previous cycle. It is the one query record from the
// recorder through internal/fi's hazard fold and first-fault draw; the
// field order packs it into 12 bytes.
type TraceEvent struct {
	Result         uint32 // fault-free ALU result
	Prev           uint32 // EX result latch before this cycle
	Op             isa.Op
	Flag, PrevFlag bool // fault-free flag outcome and its latch
}

// StoreRec records one architectural data-memory store (address, access
// size in bytes, and the unmasked source register value). Replaying the
// log up to a checkpoint's StoreIndex reconstructs data memory exactly.
type StoreRec struct {
	Addr uint32
	Size uint8
	Val  uint32
}

// Checkpoint is a complete architectural snapshot at an instruction
// boundary of the recorded run. Memory is not copied; it is recovered by
// reloading the program images and replaying Stores[:StoreIndex].
type Checkpoint struct {
	Cycles          uint64
	KernelCycles    uint64
	KernelALUCycles uint64
	Retired         uint64
	OpCounts        [isa.NumOps]uint64

	Regs         [32]uint32
	PC           uint32
	Flag         bool
	PrevEXResult uint32
	PrevFlag     bool
	LastWasLoad  bool
	LastLoadRD   uint8
	InWindow     bool

	EventIndex int // ALU trace events recorded before this point
	StoreIndex int // store-log entries recorded before this point

	Loads, Stores uint64 // memory access counters
}

// Trace is one recorded golden execution.
type Trace struct {
	Events      []TraceEvent
	Stores      []StoreRec
	Checkpoints []Checkpoint

	// Totals of the recorded run, filled by StopTrace.
	Cycles          uint64
	KernelCycles    uint64
	KernelALUCycles uint64
	Retired         uint64
	Status          Status

	CheckpointEvery uint64
}

// CheckpointBefore returns the latest checkpoint taken at or before
// trace event index k, i.e. a state from which re-execution reaches the
// k-th injector query without having issued it yet. Recording always
// takes a checkpoint at cycle 0, so the result is never nil for k >= 0.
func (t *Trace) CheckpointBefore(k int) *Checkpoint {
	i := sort.Search(len(t.Checkpoints), func(i int) bool {
		return t.Checkpoints[i].EventIndex > k
	}) - 1
	if i < 0 {
		return nil
	}
	return &t.Checkpoints[i]
}

// StartTrace attaches a fresh trace to the core and returns it; the
// following Run records every FI-eligible ALU cycle, every store, and a
// checkpoint each checkpointEvery cycles (DefaultCheckpointInterval when
// zero), starting with one at the current cycle. Recording is meant for
// golden (fault-free) runs: the recorded values are whatever the core
// executes, so an injecting run would bake its faults into the trace.
func (c *CPU) StartTrace(checkpointEvery uint64) *Trace {
	if checkpointEvery == 0 {
		checkpointEvery = DefaultCheckpointInterval
	}
	c.trace = &Trace{CheckpointEvery: checkpointEvery}
	c.nextCkpt = c.Cycles
	return c.trace
}

// StopTrace detaches the trace, fills in the run totals, and returns it.
func (c *CPU) StopTrace() *Trace {
	t := c.trace
	if t == nil {
		return nil
	}
	t.Cycles = c.Cycles
	t.KernelCycles = c.KernelCycles
	t.KernelALUCycles = c.KernelALUCycles
	t.Retired = c.Retired
	t.Status = c.status
	c.trace = nil
	return t
}

// recordStore appends to the trace's store log when recording.
func (c *CPU) recordStore(addr uint32, size uint8, val uint32) {
	if c.trace != nil {
		c.trace.Stores = append(c.trace.Stores, StoreRec{Addr: addr, Size: size, Val: val})
	}
}

// checkpoint snapshots the architectural state at the current
// instruction boundary and advances the next-checkpoint cycle.
func (c *CPU) checkpoint() {
	t := c.trace
	t.Checkpoints = append(t.Checkpoints, Checkpoint{
		Cycles:          c.Cycles,
		KernelCycles:    c.KernelCycles,
		KernelALUCycles: c.KernelALUCycles,
		Retired:         c.Retired,
		OpCounts:        c.OpCounts,
		Regs:            c.Regs,
		PC:              c.PC,
		Flag:            c.Flag,
		PrevEXResult:    c.prevEXResult,
		PrevFlag:        c.prevFlag,
		LastWasLoad:     c.lastWasLoad,
		LastLoadRD:      c.lastLoadRD,
		InWindow:        c.InWindow,
		EventIndex:      len(t.Events),
		StoreIndex:      len(t.Stores),
		Loads:           c.Mem.Loads,
		Stores:          c.Mem.Stores,
	})
	for c.nextCkpt <= c.Cycles {
		c.nextCkpt += t.CheckpointEvery
	}
}

// Restore rewinds the core and its memory to a recorded checkpoint of a
// golden trace: the program images are reloaded and the core is
// fast-forwarded from store-log entry 0 (see FastForward). Like Load,
// it assumes the memory outside the program images is already zeroed
// (Mem.Reset). Execution then continues exactly as the recorded run did
// from that boundary.
func (c *CPU) Restore(p *asm.Program, t *Trace, cp *Checkpoint) error {
	if err := c.Load(p); err != nil {
		return err
	}
	return c.fastForward(t, 0, cp)
}

// FastForward moves a golden walker — a core Restored from a checkpoint
// of t and since then only run fault-free (RunToQuery) or
// fast-forwarded — ahead to the later checkpoint cp without stepping:
// memory receives the store-log entries between the walker's cursor and
// cp.StoreIndex, and every architectural and accounting field takes the
// recorded values. The result is the state golden stepping would reach
// at cp, so a walker serving forks far apart pays for at most one
// checkpoint interval of stepping per fork. The cursor is read off the
// memory's store counter: in the golden run every store instruction
// logs one entry and counts one store, so counter minus log index is
// the same at every checkpoint.
func (c *CPU) FastForward(t *Trace, cp *Checkpoint) error {
	return c.fastForward(t, c.storeCursor(cp), cp)
}

// storeCursor is the number of t's store-log entries a golden walker's
// memory already holds, given any checkpoint cp of the same trace.
func (c *CPU) storeCursor(cp *Checkpoint) int {
	return int(c.Mem.Stores - (cp.Stores - uint64(cp.StoreIndex)))
}

// fastForward applies t.Stores[cursor:cp.StoreIndex] to memory and
// loads cp's registers and counters. Replaying an entry memory already
// holds rewrites the same bytes, but skipping one loses a store, so
// cursor must not exceed the walker's true position.
func (c *CPU) fastForward(t *Trace, cursor int, cp *Checkpoint) error {
	if cursor < 0 || cursor > cp.StoreIndex || cp.StoreIndex > len(t.Stores) {
		return fmt.Errorf("cpu: store-log cursor %d outside [0, %d] (log has %d entries)",
			cursor, cp.StoreIndex, len(t.Stores))
	}
	for _, s := range t.Stores[cursor:cp.StoreIndex] {
		var err error
		switch s.Size {
		case 1:
			err = c.Mem.StoreByte(s.Addr, uint8(s.Val))
		case 2:
			err = c.Mem.StoreHalf(s.Addr, uint16(s.Val))
		case 4:
			err = c.Mem.StoreWord(s.Addr, s.Val)
		default:
			err = fmt.Errorf("cpu: store record with size %d", s.Size)
		}
		if err != nil {
			return fmt.Errorf("cpu: replaying store log: %w", err)
		}
	}
	c.Regs = cp.Regs
	c.PC = cp.PC
	c.Flag = cp.Flag
	c.prevEXResult = cp.PrevEXResult
	c.prevFlag = cp.PrevFlag
	c.lastWasLoad = cp.LastWasLoad
	c.lastLoadRD = cp.LastLoadRD
	c.InWindow = cp.InWindow
	c.Cycles = cp.Cycles
	c.KernelCycles = cp.KernelCycles
	c.KernelALUCycles = cp.KernelALUCycles
	c.Retired = cp.Retired
	c.OpCounts = cp.OpCounts
	c.FIBits, c.FIEvents = 0, 0
	c.Mem.Loads, c.Mem.Stores = cp.Loads, cp.Stores
	c.status = StatusRunning
	c.trapErr = nil
	return nil
}
