// Pause-at-query execution and copy-on-write forking.
//
// The batched Monte-Carlo trial path (internal/mc) walks one shared
// golden prefix per group of fault trials: a "walker" core restores the
// checkpoint image once, advances golden execution to each trial's fork
// query with RunToQuery, and each trial core forks from it (ForkFrom)
// over a cloned memory. KernelALUCycles counts exactly the injector queries
// issued so far (one per FI-eligible ALU cycle inside the window), so
// it doubles as the absolute query index the walker pauses on.

package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// willQuery reports whether the instruction the core is about to issue
// would query the injector: the FI window is open and the next fetch
// decodes to an FI-eligible ALU op. It never mutates state (fetches are
// not counted and take step's predecoded-text fast path).
func (c *CPU) willQuery() bool {
	if !c.InWindow {
		return false
	}
	in, ok := c.fetchText(c.PC)
	if !ok {
		var err error
		if in, err = c.fetchMem(c.PC); err != nil {
			return false
		}
	}
	return isa.IsALU(in.Op)
}

// RunToQuery executes until the core is about to issue injector query n
// (0-based over the whole run, i.e. KernelALUCycles == n and the next
// instruction queries), then returns StatusRunning with that
// instruction NOT yet executed. A core already paused at query n
// returns immediately. Any terminal status (exit, trap, watchdog) is
// returned as-is; callers walking a golden trace treat that as an
// internal inconsistency, since every trace query lies strictly before
// the recorded end of the run.
func (c *CPU) RunToQuery(n uint64) Status {
	for c.status == StatusRunning {
		if c.KernelALUCycles >= n && c.willQuery() {
			return StatusRunning
		}
		c.step()
	}
	return c.status
}

// ForkFrom makes c a copy of the walker core w, bound to the given
// memory, with fault accounting zeroed and trace recording detached,
// that has already executed the query w is paused at (RunToQuery) with
// the corrupted capture (out, outFlag, flipped) forced in place of an
// injector call; inj answers every later query. The memory must already
// hold a byte-identical image of w.Mem (mem.CloneFrom); c then behaves
// exactly like a core Restored from the nearest checkpoint, run golden
// up to the query, and faulted there — the contract the batched trial
// path relies on for bit-identical results. Forcing the fork query here
// is what lets the trial injector be bound directly, with no wrapper
// that counts queries on every later cycle. c's previous state is
// overwritten, so one CPU value serves every trial of a chunk.
func (c *CPU) ForkFrom(w *CPU, m *mem.Memory, inj Injector, out uint32, outFlag bool, flipped int) {
	*c = *w
	c.Mem = m
	c.trace = nil
	c.FIBits, c.FIEvents = 0, 0
	c.inj = &forcedCapture{out: out, outFlag: outFlag, flipped: flipped}
	c.step()
	c.inj = inj
}

// forcedCapture is the injector of a fork's first step: it returns the
// planned corrupted capture whatever the fault-free values are.
type forcedCapture struct {
	out     uint32
	outFlag bool
	flipped int
}

func (fc *forcedCapture) Inject(isa.Op, uint32, uint32, bool, bool) (uint32, bool, int) {
	return fc.out, fc.outFlag, fc.flipped
}
