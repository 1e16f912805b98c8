package dta

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/timing"
)

// SweepKeys are the six DTA keys a cold sweep of the sweep-session
// benchmark workload characterizes, at 0.7 V.
func SweepKeys() []Key {
	return []Key{
		{Unit: circuit.UnitAdd, Gen: "imm16"},
		{Unit: circuit.UnitAdd, Gen: "u32"},
		{Unit: circuit.UnitCompare, Gen: "u16"},
		{Unit: circuit.UnitCompare, Gen: "imm16"},
		{Unit: circuit.UnitSll, Gen: "amt5"},
		{Unit: circuit.UnitMul, Gen: "u8"},
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGridsKeepNoRawMatrix: violation grids counted on a storeless
// characterizer with no At in sight keep none of the arrival matrices
// they were counted from. Six full-length grids together hold less than
// one matrix (34 rows of 8192 arrivals); keeping the six matrices would
// hold about 13.5 MB.
func TestGridsKeepNoRawMatrix(t *testing.T) {
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), DefaultConfig())
	before := heapAlloc()
	grids := make([]*ViolationGrid, 0, len(SweepKeys()))
	for _, key := range SweepKeys() {
		g, err := c.GridAt(key, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	grew := int64(heapAlloc()) - int64(before)
	matrix := int64(8 * (circuit.NumEndpoints + 1) * c.Cfg.Cycles)
	if grew >= matrix {
		t.Errorf("live heap grew %.1f MB over %d grids, one raw matrix is %.1f MB", float64(grew)/1e6, len(grids), float64(matrix)/1e6)
	}
	t.Logf("live heap grew %.2f MB over %d grids", float64(grew)/1e6, len(grids))
	runtime.KeepAlive(c)
	runtime.KeepAlive(grids)
}

// TestAtThenGridAtSimulatesOnce: a grid asked for after At is counted
// from the matrix At keeps, not from a second simulation.
func TestAtThenGridAtSimulatesOnce(t *testing.T) {
	c := newSmallCharacterizer()
	key := Key{Unit: circuit.UnitMul, Gen: "u8"}
	ch, err := c.At(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.GridAt(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.ComputedCount(); n != 1 {
		t.Errorf("At then GridAt simulated %d times, want 1", n)
	}
	if d := diffGrid(g, newViolationGrid(ch)); d != "" {
		t.Errorf("grid differs from the one counted off At's matrix: %s", d)
	}
}

// TestGridAtReusesInFlightAt: GridAt asked while At of the same key is
// simulating waits for that matrix instead of simulating its own. The
// At is in flight once its shard goroutines run.
func TestGridAtReusesInFlightAt(t *testing.T) {
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), DefaultConfig())
	key := Key{Unit: circuit.UnitMul, Gen: "u32"}
	base := runtime.NumGoroutine()
	var ch *Characterization
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		if ch, err = c.At(key, 0.7); err != nil {
			t.Error(err)
		}
	}()
	for runtime.NumGoroutine() <= base+1 {
		select {
		case <-done:
			t.Fatal("At returned before its shards were seen running")
		default:
			runtime.Gosched()
		}
	}
	g, err := c.GridAt(key, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if n := c.ComputedCount(); n != 1 {
		t.Errorf("GridAt beside an in-flight At simulated %d times, want 1", n)
	}
	if d := diffGrid(g, newViolationGrid(ch)); d != "" {
		t.Errorf("grid differs from the one counted off At's matrix: %s", d)
	}
}

// TestGridAtRacesAt races GridAt and At of one key on fresh
// characterizers: whichever comes first, every grid is bit-identical to
// the one counted off a reference simulation, every At returns that
// simulation's matrix, and the key is simulated at most twice (once
// more when GridAt's build starts before At's).
func TestGridAtRacesAt(t *testing.T) {
	key := Key{Unit: circuit.UnitAdd, Gen: "u32"}
	ref := newSmallCharacterizer().run(key, 0.7, 1)
	want := newViolationGrid(ref)
	for round := range 8 {
		c := newSmallCharacterizer()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if (i+round)%2 == 0 {
					g, err := c.GridAt(key, 0.7)
					if err != nil {
						t.Error(err)
					} else if d := diffGrid(g, want); d != "" {
						t.Errorf("round %d racer %d: %s", round, i, d)
					}
				} else {
					ch, err := c.At(key, 0.7)
					if err != nil {
						t.Error(err)
					} else if !sameCharacterization(ch, ref) {
						t.Errorf("round %d racer %d: At's matrix differs from the reference", round, i)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := c.ComputedCount(); n < 1 || n > 2 {
			t.Fatalf("round %d: %d simulations, want 1 or 2", round, n)
		}
	}
}
