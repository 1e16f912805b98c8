// Command fisimd is the batch-simulation daemon: a long-running HTTP
// service that accepts experiment-grid jobs (the same grids cmd/sweep
// runs one-shot), executes them asynchronously on the shared mc worker
// pool, deduplicates identical requests by content fingerprint, and
// streams progress over SSE. One core.System serves every job, so
// model, golden-trace and hazard caches — and, with -cache-dir, the
// persistent artifact store — amortize across the daemon's lifetime:
// the first job of a benchmark pays characterization, every later job
// warm-starts, and a resubmitted completed grid answers from cached
// cells in milliseconds. Result points carry the per-trial
// application-quality distribution (QualityMean/P50/P99 + a Wilson
// interval) alongside the boolean verdict; grid-cell checkpoint keys
// carry a quality class, so cells cached by a pre-quality daemon are
// recomputed rather than served with zeroed quality fields.
//
// Multi-tenant admission control (see docs/API.md "Admission control"):
// clients are identified by X-API-Key (or remote address), rate-limited
// and quota-bounded per the -tenants table (or the -rate/-burst/
// -max-active defaults), and scheduled through two bounded priority
// lanes — interactive ahead of batch under a weighted round-robin, with
// overload shed as 429 + Retry-After instead of a hard queue-full.
//
// Distributed execution (see DESIGN.md "Distributed execution"): with
// -worker the daemon serves the cluster worker protocol instead of the
// public API, and with -workers=URL,... it becomes a coordinator — jobs
// are planned locally and their cells executed on the worker set
// through work-stealing leases, with results bit-identical to the
// in-process backend for every cluster shape.
//
//	fisimd -addr :8023 -cache-dir /var/cache/fisim
//	fisimd -addr :8023 -parallel 2 -queue 128 -dta 4096
//	fisimd -addr :8023 -rate 5 -burst 10 -max-active 8 -tenants tenants.json
//	fisimd -addr :9101 -worker -cache-dir /var/cache/fisim-w1
//	fisimd -addr :8023 -workers http://localhost:9101,http://localhost:9102
//
// See docs/API.md for the HTTP API and cmd/fisimctl for the client.
// SIGINT/SIGTERM drain gracefully: running and queued jobs finish
// (bounded by -drain-timeout), blocked long-polls and SSE streams are
// released immediately, then the listener closes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("fisimd: ")
	addr := flag.String("addr", ":8023", "listen address")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (characterizations, traces, hazards, grid cells)")
	dtaCycles := flag.Int("dta", 8192, "DTA characterization cycles")
	trialWorkers := flag.Int("trial-workers", 0, "mc trial-pool goroutines per job (0 = NumCPU)")
	workerMode := flag.Bool("worker", false, "serve the cluster worker protocol instead of the public API")
	workerURLs := flag.String("workers", "", "comma-separated worker base URLs; jobs execute on this cluster instead of in-process")
	leaseCells := flag.Int("lease-cells", 4, "cluster mode: cells per lease")
	leaseTimeout := flag.Duration("lease-timeout", 5*time.Minute, "cluster mode: per-lease deadline before reassignment")
	parallel := flag.Int("parallel", 1, "jobs executed concurrently")
	queueCap := flag.Int("queue", 64, "bounded job queue capacity (across lanes)")
	batchCap := flag.Int("batch-queue", 0, "batch lane queue bound (0 = -queue)")
	interactiveCap := flag.Int("interactive-queue", 0, "interactive lane queue bound (0 = -queue)")
	interactiveWeight := flag.Int("interactive-weight", 4, "interactive dequeues per batch dequeue under load")
	keepJobs := flag.Int("keep", 256, "terminal jobs retained in memory")
	rate := flag.Float64("rate", 0, "default per-client submission rate limit, req/s (0 = unlimited)")
	burst := flag.Int("burst", 0, "default per-client token-bucket burst (0 = rate, min 1)")
	maxActive := flag.Int("max-active", 0, "default per-client active-job quota (0 = unlimited)")
	tenantsFile := flag.String("tenants", "", "JSON tenants table overriding the defaults per client (see docs/API.md)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful drain bound on shutdown")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.DTA.Cycles = *dtaCycles
	sys := core.New(cfg)

	var store *artifact.Store
	if *cacheDir != "" {
		var err error
		if store, err = artifact.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		sys.AttachStore(store)
		log.Printf("artifact store: %s", store.Dir())
	}

	if *workerMode {
		if *workerURLs != "" {
			log.Fatal("-worker and -workers are mutually exclusive: a node is a worker or a coordinator, not both")
		}
		w := &cluster.Worker{System: sys, Store: store, Workers: *trialWorkers, Logf: log.Printf}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		log.Printf("worker listening on %s", *addr)
		if err := cluster.Serve(ctx, *addr, w); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Printf("cache: %s", sys.CacheSummary())
		return
	}

	var backend server.Backend
	if *workerURLs != "" {
		urls := strings.Split(*workerURLs, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		coord, err := cluster.New(sys, store, urls, cluster.Config{
			LeaseCells:   *leaseCells,
			LeaseTimeout: *leaseTimeout,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		backend = coord
		log.Printf("cluster coordinator: %d workers, %d cells/lease", len(urls), *leaseCells)
	}

	tenants := server.TenantsConfig{
		Default: server.TenantConfig{Rate: *rate, Burst: *burst, MaxActive: *maxActive},
	}
	if *tenantsFile != "" {
		blob, err := os.ReadFile(*tenantsFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(blob, &tenants); err != nil {
			log.Fatalf("tenants %s: %v", *tenantsFile, err)
		}
		log.Printf("tenants: default %+v, %d overrides", tenants.Default, len(tenants.Clients))
	}

	m := server.NewManager(server.Options{
		System:   sys,
		Store:    store,
		Backend:  backend,
		QueueCap: *queueCap,
		Lanes: map[string]server.LaneConfig{
			server.LaneInteractive: {Cap: *interactiveCap, Weight: *interactiveWeight},
			server.LaneBatch:       {Cap: *batchCap, Weight: 1},
		},
		Tenants:  tenants,
		Parallel: *parallel,
		Workers:  *trialWorkers,
		KeepJobs: *keepJobs,
	})
	srv := &http.Server{Addr: *addr, Handler: server.Handler(m)}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		s := <-sig
		log.Printf("%v: draining (bound %s)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			log.Printf("drain: %v (remaining jobs cancelled)", err)
		}
		log.Printf("cache: %s", sys.CacheSummary())
		_ = srv.Shutdown(context.Background())
	}()

	log.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
