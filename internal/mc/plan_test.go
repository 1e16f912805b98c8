package mc

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
)

// planGrid is the multi-axis grid the plan/subset tests share: two
// sigma values over three frequencies — six cells, two series.
func planGrid() Grid {
	return Grid{
		Spec: Spec{
			System: system(),
			Bench:  bench.Median(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7},
			Trials: 6,
			Seed:   9,
		},
		Axes: Axes{Sigmas: []float64{0, 0.010}, Freqs: []float64{690, 710, 730}},
	}
}

// Any partition of a grid into subsets, executed through RunCells and
// merged back by index, must reproduce the full-grid run bit for bit —
// the invariant the cluster coordinator's lease/merge cycle rests on.
func TestRunCellsSubsetsMatchFullGrid(t *testing.T) {
	g := planGrid()
	full, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Fatalf("grid cells = %d, want 6", len(full))
	}

	// An uneven, out-of-order partition: the merge must not depend on
	// lease geometry or on which "worker" ran a cell first.
	partitions := [][]int{{4, 1}, {0, 5, 2}, {3}}
	merged := make([]CellResult, len(full))
	for _, part := range partitions {
		sub, err := g.RunCells(context.Background(), part)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != len(part) {
			t.Fatalf("subset returned %d cells, want %d", len(sub), len(part))
		}
		for i, idx := range part {
			merged[idx] = sub[i]
		}
	}
	if !reflect.DeepEqual(full, merged) {
		t.Errorf("merged subsets != full grid:\n%+v\n%+v", merged, full)
	}
}

func TestRunCellsRejectsOutOfRangeIndex(t *testing.T) {
	g := planGrid()
	if _, err := g.RunCells(context.Background(), []int{6}); err == nil {
		t.Fatal("index past the enumeration accepted")
	}
	if _, err := g.RunCells(context.Background(), []int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
}

// PlanCells must agree with the engine's own checkpoint identity: after
// a full run over a store, planning the same grid with Resume finds
// every cell checkpointed under the planned key, with the Point the run
// produced.
func TestPlanCellsKeysMatchCheckpoints(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := planGrid()
	g.Store = st

	plan, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 6 {
		t.Fatalf("planned %d cells, want 6", len(plan))
	}
	seen := make(map[string]bool)
	for i, pc := range plan {
		if pc.Index != i {
			t.Errorf("plan[%d].Index = %d", i, pc.Index)
		}
		if pc.Key == "" || seen[pc.Key] {
			t.Errorf("plan[%d]: key %q empty or duplicated", i, pc.Key)
		}
		seen[pc.Key] = true
		if pc.Point != nil {
			t.Errorf("plan[%d]: checkpoint reported before any run", i)
		}
	}

	full, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Resume = true
	plan2, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range plan2 {
		if pc.Key != plan[i].Key {
			t.Errorf("plan[%d]: key changed across runs", i)
		}
		if pc.Point == nil {
			t.Errorf("plan[%d]: no checkpoint under planned key after a full run", i)
			continue
		}
		if !reflect.DeepEqual(*pc.Point, full[i].Point) {
			t.Errorf("plan[%d]: checkpointed Point differs from the run's:\n%+v\n%+v",
				i, *pc.Point, full[i].Point)
		}
	}
}

// TestReplanAllocatesLittle pins that planning is paid once per System:
// a cluster worker replans the whole grid for every lease it serves, so
// a second PlanCells of the benchmark's cluster grid (median and
// checksum x model C x sigma 0, 0.010 x 720..820 MHz, 24 cells) on one
// warm System must allocate under 256 KiB — the cell keys, not a
// rebuild of either program for its digest.
func TestReplanAllocatesLittle(t *testing.T) {
	g := Grid{
		Spec: Spec{
			System: system(),
			Model:  core.ModelSpec{Kind: "C", Vdd: 0.7},
			Trials: 32,
			Seed:   1,
		},
		Axes: Axes{
			Benches: []*bench.Benchmark{bench.Median(), bench.Checksum()},
			Sigmas:  []float64{0, 0.010},
			Freqs:   []float64{720, 740, 760, 780, 800, 820},
		},
	}
	first, err := g.PlanCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 24 {
		t.Fatalf("planned %d cells, want 24", len(first))
	}
	// The least of three replans, so that an allocation elsewhere in the
	// process cannot fail the test.
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := g.PlanCells()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatal("replanning changed the plan")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 256<<10 {
		t.Errorf("replanning allocated %d bytes, want under %d", least, 256<<10)
	}
	t.Logf("replanning allocated %d bytes", least)
}
