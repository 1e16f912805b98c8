package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/server"
)

// trialsFaulting runs fresh-seed grids above the point of first failure
// on a substrate warmed in set-up, so nearly all time goes to faulting
// trials.
func trialsFaulting() workload {
	return workload{
		name: "trials-faulting",
		why:  "faulting trials dominate: batched first-fault planning, checkpoint fork, ISS stepping and quality scoring; DTA, artifact and server idle",
		spec: server.JobSpec{
			Benches: []string{"checksum", "median", "kmeans"}, Models: []string{"C"},
			Vdds: []float64{0.7}, Sigmas: []float64{0.010},
			FreqLo: 760, FreqHi: 880, FreqStep: 40, Trials: 64,
		},
		digestOps: 2,
		setup: func(c config, spec server.JobSpec) (instance, error) {
			spec, err := spec.Canonicalize()
			if err != nil {
				return nil, err
			}
			sys := core.New(c.core())
			if err := warmSystem(sys, spec); err != nil {
				return nil, err
			}
			grid, err := spec.Grid(sys, nil, poolWorkers, nil)
			if err != nil {
				return nil, err
			}
			return &trialsInst{sys: sys, spec: spec, cells: grid.Cells()}, nil
		},
	}
}

type trialsInst struct {
	sys   *core.System
	spec  server.JobSpec
	cells []mc.Cell // the grid's cells in enumeration order
}

func (t *trialsInst) close() {}

func (t *trialsInst) run(ph *phase) error {
	for i := 0; i == 0 || ph.more(); i++ {
		ph.record(t.grid(ph.tr, i, derive(ph.seed, int64(i))))
	}
	return nil
}

// grid runs repetition i: the workload's grid at a fresh seed.
func (t *trialsInst) grid(tr *tracer, i int, seed int64) *op {
	o := &op{index: i, kind: "grid"}
	sp := tr.start("grid", int64(i), 0)
	defer sp.end()
	t0 := time.Now()
	spec := t.spec
	spec.Seed = seed
	grid, err := spec.Grid(t.sys, nil, poolWorkers, nil)
	if err != nil {
		o.err = err
		return o
	}
	gs := tr.start("mc.grid_run", int64(i), sp.id())
	grid.Spec.Progress = firstProgress(tr, int64(i), gs.id())
	o.cells, err = grid.Run()
	gs.end()
	if err != nil {
		o.err = err
		return o
	}
	rs := tr.start("report.csv", int64(i), sp.id())
	o.csv, o.err = csvOf("sweep", seed, o.cells)
	rs.end()
	o.dur = time.Since(t0)
	o.trials = computedTrials(o.cells)
	return o
}

// check evaluates one cell of every repetition alone with mc.Run on a
// single worker — a different schedule of the same trials — and pins it
// bit-identical to the grid's cell.
func (t *trialsInst) check(ph *phase) {
	for _, o := range ph.sorted() {
		if o.err != nil {
			continue
		}
		k := o.index % len(t.cells)
		want, cell := o.cells[k], t.cells[k]
		got, err := mc.Run(mc.Spec{
			System: t.sys, Bench: cell.Bench, Model: cell.Model,
			Trials: t.spec.Trials, Seed: derive(ph.seed, int64(o.index)),
			InputSeed: t.spec.InputSeed, WatchdogFactor: t.spec.WatchdogFactor,
			Workers: 1,
		}, cell.Model.FreqMHz)
		if err != nil {
			o.err = fmt.Errorf("cell %d alone: %w", k, err)
		} else if got != want.Point {
			o.err = fmt.Errorf("cell %d alone differs from the grid's: %+v vs %+v", k, got, want.Point)
		}
	}
}
