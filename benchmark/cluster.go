package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

// clusterChecks bounds how many grids per phase are recomputed
// in-process for the output check (first, middle, last).
const clusterChecks = 3

// cluster2w runs grids through a work-stealing coordinator and two
// workers served over loopback in this process, on real compute. With
// two workers on two cores it measures coordination cost, not scale-out.
func cluster2w() workload {
	return workload{
		name: "cluster-2w",
		why:  "lease planning, NDJSON streaming, stealing and merging against real trial compute on two loopback workers",
		spec: server.JobSpec{
			Benches: []string{"median", "checksum"}, Models: []string{"C"},
			Vdds: []float64{0.7}, Sigmas: []float64{0, 0.010},
			FreqLo: 720, FreqHi: 820, FreqStep: 20, Trials: 32,
		},
		digestOps: 2,
		setup: func(c config, spec server.JobSpec) (instance, error) {
			spec, err := spec.Canonicalize()
			if err != nil {
				return nil, err
			}
			// The workers share a characterization/trace/hazard cache
			// directory, as fisimd workers given one -cache-dir do: the
			// first warms from scratch, the second loads. Cells are not
			// stored.
			st, err := artifact.Open(filepath.Join(c.dir, "substrate"))
			if err != nil {
				return nil, err
			}
			var systems []*core.System
			for i := 0; i < clients; i++ {
				sys := core.New(c.core())
				sys.AttachStore(st)
				if err := warmSystem(sys, spec); err != nil {
					return nil, err
				}
				systems = append(systems, sys)
			}
			rig, err := startCluster(core.New(c.core()), systems)
			if err != nil {
				return nil, err
			}
			return &clusterInst{rig: rig, spec: spec, ref: systems[0]}, nil
		},
	}
}

// clusterRig is a coordinator over in-process workers, each served on
// its own loopback listener behind a handler that records lease spans.
type clusterRig struct {
	coord   *cluster.Coordinator
	servers []*http.Server
	served  chan error
	// cur is the span context leases of the running grid belong to.
	cur atomic.Pointer[spanRef]
}

func startCluster(coordSys *core.System, systems []*core.System) (*clusterRig, error) {
	r := &clusterRig{served: make(chan error, len(systems))}
	var urls []string
	for _, sys := range systems {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		w := &cluster.Worker{System: sys, Workers: 1}
		srv := &http.Server{Handler: r.leaseSpans(w.Handler())}
		r.servers = append(r.servers, srv)
		go func() { r.served <- srv.Serve(ln) }()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	coord, err := cluster.New(coordSys, nil, urls, cluster.Config{})
	if err != nil {
		r.close()
		return nil, err
	}
	r.coord = coord
	return r, nil
}

// leaseSpans wraps a worker handler with a "cluster.lease" span per
// lease request of a traced grid.
func (r *clusterRig) leaseSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ref := r.cur.Load()
		if ref == nil || req.URL.Path != "/v1/worker/lease" {
			h.ServeHTTP(w, req)
			return
		}
		sp := ref.tr.start("cluster.lease", ref.trace, ref.parent)
		defer sp.end()
		h.ServeHTTP(w, req)
	})
}

func (r *clusterRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range r.servers {
		_ = s.Shutdown(ctx)
		<-r.served
	}
}

// grid runs one grid through the coordinator.
func (r *clusterRig) grid(tr *tracer, i int, spec server.JobSpec) *op {
	o := &op{index: i, kind: "grid"}
	sp := tr.start("grid", int64(i), 0)
	defer sp.end()
	t0 := time.Now()
	cs := tr.start("cluster.run", int64(i), sp.id())
	if tr != nil {
		r.cur.Store(&spanRef{tr, int64(i), cs.id()})
		defer r.cur.Store(nil)
	}
	cells, err := r.coord.Run(context.Background(), spec, firstProgress(tr, int64(i), cs.id()))
	cs.end()
	if err != nil {
		o.err = err
		return o
	}
	rs := tr.start("report.csv", int64(i), sp.id())
	o.csv, o.err = csvOf("sweep", spec.Seed, cells)
	rs.end()
	o.dur = time.Since(t0)
	o.trials = computedTrials(cells)
	return o
}

type clusterInst struct {
	rig  *clusterRig
	spec server.JobSpec
	ref  *core.System // substrate of the in-process output check
	// stats brackets the most recent phase.
	stats0, stats1 server.ClusterStats
}

func (c *clusterInst) close() { c.rig.close() }

func (c *clusterInst) run(ph *phase) error {
	c.stats0 = c.rig.coord.ClusterStats()
	for i := 0; i == 0 || ph.more(); i++ {
		spec, err := withSeed(c.spec, derive(ph.seed, int64(i)))
		if err != nil {
			return err
		}
		ph.record(c.rig.grid(ph.tr, i, spec))
	}
	c.stats1 = c.rig.coord.ClusterStats()
	return nil
}

// check recomputes the first, middle and last grid on the in-process
// GridBackend: the merged cluster result must match byte for byte.
func (c *clusterInst) check(ph *phase) {
	ops := ph.sorted()
	picked := map[int]bool{}
	for k := 0; k < clusterChecks; k++ {
		picked[k*(len(ops)-1)/max(1, clusterChecks-1)] = true
	}
	for i := range picked {
		o := ops[i]
		if o.err != nil {
			continue
		}
		spec, err := withSeed(c.spec, derive(ph.seed, int64(o.index)))
		if err != nil {
			o.err = err
			continue
		}
		cells, err := server.GridBackend{System: c.ref, Workers: poolWorkers}.Run(context.Background(), spec, nil)
		if err != nil {
			o.err = fmt.Errorf("in-process backend: %w", err)
			continue
		}
		want, err := csvOf("sweep", spec.Seed, cells)
		if err != nil || !bytes.Equal(want, o.csv) {
			o.err = fmt.Errorf("cluster result differs from the in-process backend")
		}
	}
}

func (c *clusterInst) layers(ph *phase, res *childResult) {
	clusterLayers(ph, c.stats0, c.stats1, res)
}

// clusterLayers derives the cluster layer's metrics from a traced phase:
// lease span medians and busy time, and coordinator counter deltas.
func clusterLayers(ph *phase, s0, s1 server.ClusterStats, res *childResult) {
	spans := ph.tr.snapshot()
	leases := durations(spans, "cluster.lease")
	res.put("cluster.lease_ms", summarize(leases).P50ms, len(leases))
	res.put("cluster.leases", float64(s1.Leases-s0.Leases), 1)
	res.put("cluster.cells_stolen", float64(s1.CellsStolen-s0.CellsStolen), 1)
	res.put("cluster.cells_reassigned", float64(s1.CellsReassigned-s0.CellsReassigned), 1)
	dup := s1.CellsDuplicate - s0.CellsDuplicate
	done := s1.CellsCompleted - s0.CellsCompleted
	res.put("cluster.cells_duplicate", float64(dup), 1)
	if done+dup > 0 {
		res.put("cluster.useful_ratio", float64(done)/float64(done+dup), int(done+dup))
	}
	var busy, wall time.Duration
	for _, d := range leases {
		busy += d
	}
	for _, d := range durations(spans, "cluster.run") {
		wall += d
	}
	if wall > 0 {
		res.put("cluster.idle_ratio", 1-busy.Seconds()/(float64(clients)*wall.Seconds()), len(leases))
	}
}
