// Package loadgen is the traffic harness for the fisimd service layer:
// an open-loop, mixed-priority load generator plus an HTTP fault proxy
// (proxy.go). It sits beside internal/client (which it uses for the
// wire protocol) and above nothing in the simulation stack — it drives
// any daemon, real or httptest-backed, purely over HTTP.
//
// Open-loop means arrivals are paced by the configured rate, not by the
// server's responses, so saturation actually saturates: when the daemon
// sheds load the generator keeps arriving on schedule and the shed rate
// is measured rather than hidden by backpressure on the generator
// itself. Per-lane latency percentiles (time-to-start, time-to-done,
// from the server's own timestamps), shed/throughput counters and the
// lost-accepted-jobs invariant come out as a Report — the numbers the
// saturation tests assert SLOs against.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
)

// LaneLoad is one lane's arrival process.
type LaneLoad struct {
	// Priority tags submissions ("interactive" or "batch").
	Priority string
	// Rate is the open-loop arrival rate in submissions per second.
	Rate float64
	// Jobs is how many submissions this lane issues in total.
	Jobs int
	// Spec builds the i-th submission body. It must vary something
	// result-relevant (typically the seed) when distinct executions are
	// wanted — identical specs dedup server-side, which the report
	// counts separately.
	Spec func(i int) map[string]any
	// APIKey, when set, identifies this lane's tenant.
	APIKey string
}

// Config drives one Run.
type Config struct {
	// Base is the daemon (or fault proxy) base URL.
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Lanes are the concurrent arrival processes.
	Lanes []LaneLoad
	// WaitTimeout bounds how long Run waits for accepted jobs to reach a
	// terminal state after the last arrival (default 120s). Jobs still
	// live past it are counted Lost — the invariant the chaos tests
	// assert to be zero.
	WaitTimeout time.Duration
	// SubmitRetries is the per-submission attempt budget (default 1:
	// raw submissions, so shed responses are observed rather than
	// retried away; the retrying-client tests live in internal/client).
	SubmitRetries int
	// Seed fixes client jitter for reproducible runs.
	Seed int64
}

// Percentiles summarizes a latency sample in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
	N   int     `json:"n"`
}

func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sort.Float64s(ms)
	at := func(p float64) float64 {
		i := int(math.Ceil(p/100*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		return ms[i]
	}
	return Percentiles{P50: at(50), P90: at(90), P99: at(99), Max: ms[len(ms)-1], N: len(ms)}
}

// LaneReport is one lane's measured outcome.
type LaneReport struct {
	Priority  string `json:"priority"`
	Submitted int    `json:"submitted"`
	Accepted  int    `json:"accepted"` // new jobs scheduled (2xx, not deduped)
	Deduped   int    `json:"deduped"`
	// Shed counts 429 refusals; RetryAfterSeen how many of them carried
	// a positive Retry-After header (honest shedding advertises when to
	// come back).
	Shed           int `json:"shed"`
	RetryAfterSeen int `json:"retry_after_seen"`
	Errors         int `json:"errors"` // non-429 submission failures
	Done           int `json:"done"`
	Failed         int `json:"failed"`
	Canceled       int `json:"canceled"`
	// Lost counts accepted jobs that never reached a terminal state
	// within WaitTimeout — the must-be-zero invariant.
	Lost int `json:"lost"`
	// Start is time-to-start (created→started) and Terminal
	// time-to-terminal (created→finished), from server timestamps.
	Start            Percentiles `json:"time_to_start"`
	Terminal         Percentiles `json:"time_to_terminal"`
	ThroughputPerSec float64     `json:"throughput_jobs_per_sec"` // terminal jobs / wall time
}

// Report is one Run's outcome; cmd/fisimload prints it as JSON.
type Report struct {
	DurationSec float64      `json:"duration_sec"`
	Lanes       []LaneReport `json:"lanes"`
	TotalLost   int          `json:"total_lost"`
}

// Lane returns the report of the named lane (nil if absent).
func (r *Report) Lane(priority string) *LaneReport {
	for i := range r.Lanes {
		if r.Lanes[i].Priority == priority {
			return &r.Lanes[i]
		}
	}
	return nil
}

// accepted is one job the daemon admitted, tracked to a terminal state.
type accepted struct {
	id      string
	lane    int
	deduped bool
}

// Run drives the configured lanes open-loop against cfg.Base, then
// tracks every accepted job to a terminal state and aggregates the
// per-lane report. The context bounds the whole run; cancelling it
// mid-flight yields a partial (but internally consistent) report with
// the untracked remainder counted Lost.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if len(cfg.Lanes) == 0 {
		return Report{}, fmt.Errorf("loadgen: no lanes configured")
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 120 * time.Second
	}
	if cfg.SubmitRetries <= 0 {
		cfg.SubmitRetries = 1
	}

	start := time.Now()
	reports := make([]LaneReport, len(cfg.Lanes))
	startSamples := make([][]float64, len(cfg.Lanes))
	terminalSamples := make([][]float64, len(cfg.Lanes))
	var mu sync.Mutex
	var acceptedJobs []accepted

	// Arrival phase: one pacer per lane, one goroutine per arrival so a
	// slow (or stalled) submission never delays the next arrival — that
	// is what makes the loop open.
	var arrivals sync.WaitGroup
	var inflight sync.WaitGroup
	for li := range cfg.Lanes {
		lane := cfg.Lanes[li]
		reports[li].Priority = lane.Priority
		cl := client.New(client.Config{
			Base: cfg.Base, HTTP: cfg.HTTP, APIKey: lane.APIKey,
			MaxAttempts: cfg.SubmitRetries, Seed: cfg.Seed + int64(li) + 1,
			BaseDelay: 50 * time.Millisecond,
		})
		arrivals.Add(1)
		go func(li int, lane LaneLoad, cl *client.Client) {
			defer arrivals.Done()
			interval := time.Duration(0)
			if lane.Rate > 0 {
				interval = time.Duration(float64(time.Second) / lane.Rate)
			}
			for i := 0; i < lane.Jobs; i++ {
				if ctx.Err() != nil {
					return
				}
				inflight.Add(1)
				go func(i int) {
					defer inflight.Done()
					submitOne(ctx, cl, lane, li, i, reports, &mu, &acceptedJobs)
				}(i)
				if interval > 0 && i < lane.Jobs-1 {
					select {
					case <-time.After(interval):
					case <-ctx.Done():
						return
					}
				}
			}
		}(li, lane, cl)
	}
	arrivals.Wait()
	inflight.Wait()

	// Tracking phase: every accepted job must go terminal. Waits use a
	// retrying client — transient failures while polling must not turn
	// into false "lost" verdicts.
	waiter := client.New(client.Config{
		Base: cfg.Base, HTTP: cfg.HTTP, MaxAttempts: 5,
		Seed: cfg.Seed + 7919, BaseDelay: 100 * time.Millisecond,
	})
	wctx, wcancel := context.WithTimeout(ctx, cfg.WaitTimeout)
	defer wcancel()
	var trackers sync.WaitGroup
	for _, a := range acceptedJobs {
		trackers.Add(1)
		go func(a accepted) {
			defer trackers.Done()
			st, err := waiter.Wait(wctx, a.id)
			mu.Lock()
			defer mu.Unlock()
			r := &reports[a.lane]
			if err != nil || !st.Terminal() {
				r.Lost++
				return
			}
			switch st.State {
			case "done":
				r.Done++
			case "failed":
				r.Failed++
			case "canceled":
				r.Canceled++
			}
			if st.Started != nil {
				startSamples[a.lane] = append(startSamples[a.lane],
					float64(st.Started.Sub(st.Created))/float64(time.Millisecond))
			}
			if st.Finished != nil {
				terminalSamples[a.lane] = append(terminalSamples[a.lane],
					float64(st.Finished.Sub(st.Created))/float64(time.Millisecond))
			}
		}(a)
	}
	trackers.Wait()

	wall := time.Since(start)
	rep := Report{DurationSec: wall.Seconds()}
	for li := range reports {
		r := reports[li]
		r.Start = percentiles(startSamples[li])
		r.Terminal = percentiles(terminalSamples[li])
		terminal := r.Done + r.Failed + r.Canceled
		if wall > 0 {
			r.ThroughputPerSec = float64(terminal) / wall.Seconds()
		}
		rep.TotalLost += r.Lost
		rep.Lanes = append(rep.Lanes, r)
	}
	return rep, nil
}

// submitOne issues one submission and files its outcome.
func submitOne(ctx context.Context, cl *client.Client, lane LaneLoad, li, i int,
	reports []LaneReport, mu *sync.Mutex, acceptedJobs *[]accepted) {
	sr, err := cl.Submit(ctx, lane.Spec(i))
	mu.Lock()
	defer mu.Unlock()
	reports[li].Submitted++
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == 429 {
			reports[li].Shed++
			if apiErr.RetryAfterHint() > 0 {
				reports[li].RetryAfterSeen++
			}
			return
		}
		reports[li].Errors++
		return
	}
	if sr.Deduped {
		reports[li].Deduped++
	} else {
		reports[li].Accepted++
	}
	*acceptedJobs = append(*acceptedJobs, accepted{id: sr.ID, lane: li, deduped: sr.Deduped})
}
