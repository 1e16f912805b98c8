// Command fisimload drives an open-loop, mixed-priority load test
// against a running fisimd daemon and writes the measured report as
// JSON; internal/loadgen's TestSaturationSLO asserts the service-layer
// SLOs on the same flood in-process.
//
//	fisimload -addr http://localhost:8023 \
//	    -interactive-rate 4 -interactive-jobs 20 \
//	    -batch-rate 20 -batch-jobs 60 -o serve.json
//
// Both lanes submit tiny single-cell grids whose seeds differ per
// submission (so nothing dedups away unless -dedup is set), interactive
// ones under the "interactive" priority and an optional API key per
// lane. The report carries per-lane shed counts, time-to-start and
// time-to-terminal percentiles from the server's own timestamps, and
// the lost-accepted-jobs invariant (must be zero on a healthy daemon).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fisimload: ")
	addr := flag.String("addr", envOr("FISIMD_ADDR", "http://localhost:8023"), "fisimd base URL (or $FISIMD_ADDR)")
	iRate := flag.Float64("interactive-rate", 4, "interactive lane arrival rate, jobs/s")
	iJobs := flag.Int("interactive-jobs", 20, "interactive lane total submissions")
	iKey := flag.String("interactive-key", "interactive-tenant", "interactive lane X-API-Key")
	bRate := flag.Float64("batch-rate", 20, "batch lane arrival rate, jobs/s")
	bJobs := flag.Int("batch-jobs", 60, "batch lane total submissions")
	bKey := flag.String("batch-key", "batch-tenant", "batch lane X-API-Key")
	trials := flag.Int("trials", 4, "Monte-Carlo trials per submitted cell")
	seed := flag.Int64("seed", 1, "base RNG seed (varied per submission unless -dedup)")
	dedup := flag.Bool("dedup", false, "submit identical specs so the daemon dedups instead of executing")
	waitTimeout := flag.Duration("wait-timeout", 2*time.Minute, "bound on waiting for accepted jobs to go terminal")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall run deadline")
	out := flag.String("o", "", "write the JSON report here (default stdout)")
	flag.Parse()

	spec := func(priority string, laneSeed int64) func(i int) map[string]any {
		return func(i int) map[string]any {
			s := laneSeed
			if !*dedup {
				s += int64(i)
			}
			return map[string]any{
				"benches": []string{"median"}, "models": []string{"A"},
				"freqs": []float64{900}, "vdds": []float64{0.7},
				"trials": *trials, "seed": s, "priority": priority,
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Base: *addr,
		Lanes: []loadgen.LaneLoad{
			{Priority: "interactive", Rate: *iRate, Jobs: *iJobs, APIKey: *iKey, Spec: spec("interactive", *seed)},
			{Priority: "batch", Rate: *bRate, Jobs: *bJobs, APIKey: *bKey, Spec: spec("batch", *seed+1_000_000)},
		},
		WaitTimeout: *waitTimeout,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if rep.TotalLost > 0 {
		log.Fatalf("%d accepted jobs never reached a terminal state", rep.TotalLost)
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}
