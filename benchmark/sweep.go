package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/server"
)

// warmSweeps is how many warm sweeps, each at a new seed, follow a
// session's cold sweep; one resume of the last closes the session. With
// as many resumes as cold sweeps, the median sweep of a session is its
// median warm sweep, so op_p50_ms is the warm-sweep latency.
const warmSweeps = 3

// sweepSession is one researcher's sweep runs on one cache directory,
// each a separate `sweep -cache-dir` invocation with its own System:
// cold (empty directory), warm sweeps (same directory, new seeds), and
// a resume of the last warm grid (every cell from disk).
func sweepSession() workload {
	return workload{
		name: "sweep-session",
		why:  "cold sweep pays DTA, golden recording, hazard builds and cell writes; warm and resume sweeps are artifact reads and decode",
		spec: server.JobSpec{
			Benches: []string{"median", "mat_mult_8bit"}, Models: []string{"B+", "C"},
			Vdds: []float64{0.7}, Sigmas: []float64{0.010},
			FreqLo: 690, FreqHi: 750, FreqStep: 20, Trials: 16,
		},
		digestOps: 2, // the first session's cold and first warm sweep
		setup: func(c config, spec server.JobSpec) (instance, error) {
			// Set-up is one cold sweep at a seed no session uses, on a
			// directory of its own: it faults in the code and heap the
			// sessions run on, and its System — a substrate computed, not
			// loaded — is what the checks recompute warm grids on.
			spec, err := spec.Canonicalize()
			if err != nil {
				return nil, err
			}
			s := &sweepInst{cfg: c.core(), spec: spec}
			o, sys := s.sweep(nil, c.dir, derive(c.seed, -1), false, 0)
			if o.err != nil {
				return nil, o.err
			}
			s.ref = sys
			return s, nil
		},
	}
}

type sweepInst struct {
	cfg  core.Config
	spec server.JobSpec
	ref  *core.System // the set-up sweep's System
}

func (s *sweepInst) close() {}

func (s *sweepInst) run(ph *phase) error {
	n := 0
	add := func(o *op, kind string) {
		o.index, o.kind = n, kind
		n++
		ph.record(o)
	}
	for sess := 0; sess == 0 || ph.more(); sess++ {
		dir := sessionDir(ph, sess)
		trace := int64(sess)
		cold, _ := s.sweep(ph.tr, dir, sweepSeed(ph, sess, 0), false, trace)
		add(cold, "cold")
		for w := 1; w <= warmSweeps; w++ {
			warm, _ := s.sweep(ph.tr, dir, sweepSeed(ph, sess, w), false, trace)
			add(warm, "warm")
		}
		o, _ := s.sweep(ph.tr, dir, sweepSeed(ph, sess, warmSweeps), true, trace)
		if o.err == nil && o.trials != 0 {
			o.err = fmt.Errorf("resume recomputed %d trials", o.trials)
		}
		add(o, "resume")
	}
	return nil
}

// sweepSeed is the seed of a session's cold sweep (w = 0) or w-th warm
// sweep.
func sweepSeed(ph *phase, sess, w int) int64 { return derive(ph.seed, int64(sess), int64(w)) }

// sessionDir is the cache directory of one session of a phase.
func sessionDir(ph *phase, sess int) string {
	return filepath.Join(ph.dir, fmt.Sprintf("%s-session-%d", ph.tag, sess))
}

// sweep runs one sweep command: a fresh System over the session's
// store, the grid, and its CSV report.
func (s *sweepInst) sweep(tr *tracer, dir string, seed int64, resume bool, trace int64) (*op, *core.System) {
	// A sweep is a process of its own: it starts on an empty heap, not
	// on the previous sweep's garbage.
	runtime.GC()
	o := &op{}
	sp := tr.start("sweep", trace, 0)
	defer sp.end()
	t0 := time.Now()
	sys := core.New(s.cfg)
	st, err := artifact.Open(dir)
	if err != nil {
		o.err = err
		return o, sys
	}
	sys.AttachStore(st)
	spec := s.spec
	spec.Seed = seed
	grid, err := spec.Grid(sys, st, poolWorkers, nil)
	if err != nil {
		o.err = err
		return o, sys
	}
	grid.Resume = resume
	gs := tr.start("mc.grid_run", trace, sp.id())
	grid.Spec.Progress = firstProgress(tr, trace, gs.id())
	cells, err := grid.Run()
	gs.end()
	if err != nil {
		o.err = err
		return o, sys
	}
	rs := tr.start("report.csv", trace, sp.id())
	o.csv, o.err = csvOf("sweep", seed, cells)
	rs.end()
	o.dur = time.Since(t0)
	o.trials = computedTrials(cells)
	return o, sys
}

// check pins, per session, the resume CSV to its warm sweep's, a resume
// of the cold seed to the cold CSV, and the first warm grid recomputed
// on a computed (not loaded) substrate to its warm CSV.
func (s *sweepInst) check(ph *phase) {
	ops := ph.sorted()
	per := 2 + warmSweeps
	for i := 0; i+per <= len(ops); i += per {
		sess := i / per
		cold, first, last, resume := ops[i], ops[i+1], ops[i+warmSweeps], ops[i+per-1]
		if last.err == nil && resume.err == nil && !bytes.Equal(resume.csv, last.csv) {
			resume.err = fmt.Errorf("resume CSV differs from the warm sweep's")
		}
		if cold.err == nil {
			again, _ := s.sweep(nil, sessionDir(ph, sess), sweepSeed(ph, sess, 0), true, 0)
			if again.err != nil {
				cold.err = fmt.Errorf("cold-seed resume: %w", again.err)
			} else if again.trials != 0 || !bytes.Equal(again.csv, cold.csv) {
				cold.err = fmt.Errorf("cold-seed resume differs from the cold sweep (%d trials recomputed)", again.trials)
			}
		}
		if first.err == nil {
			spec := s.spec
			spec.Seed = sweepSeed(ph, sess, 1)
			if err := inProcessMatches(s.ref, spec, first.csv); err != nil {
				first.err = err
			}
		}
	}
}
