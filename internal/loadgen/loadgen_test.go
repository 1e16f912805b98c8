package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/mc"
	"repro/internal/server"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

// system returns a shared small-DTA stack: it serves the managers' dedup
// fingerprints and the real trials of the grid-rate-limited case.
func system() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
		sys = core.New(cfg)
	})
	return sys
}

// stubBackend simulates fixed-duration jobs so saturation tests control
// service time exactly.
type stubBackend struct{ delay time.Duration }

func (b stubBackend) Run(ctx context.Context, spec server.JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	onProgress(mc.Progress{DoneTrials: spec.Trials, TotalTrials: spec.Trials, DonePoints: 1, TotalPoints: 1})
	return nil, nil
}

// spec builds the i-th single-cell submission for a lane (the shape
// cmd/fisimload submits); seeds make each one unique.
func spec(priority string, base int64, trials int) func(i int) map[string]any {
	return func(i int) map[string]any {
		return map[string]any{
			"benches": []string{"median"}, "models": []string{"A"},
			"freqs": []float64{900}, "vdds": []float64{0.7},
			"trials": trials, "seed": base + int64(i), "priority": priority,
		}
	}
}

// TestSaturationSLO is the headline chaos/load invariant: a batch flood
// against a small queue sheds honestly (429 with Retry-After, or
// displaced jobs reported terminal), never loses an accepted job, and
// keeps interactive time-to-start bounded. The stub case floods a
// flaky fixed-duration backend; the grid case is the service-layer SLO
// run: real trials behind one runner, with the batch tenant throttled
// through a fisimd -tenants table so the daemon must shed on any host.
func TestSaturationSLO(t *testing.T) {
	cases := []struct {
		name    string
		backend server.Backend
		queue   int
		tenants string // fisimd -tenants JSON
		trials  int
		warmUp  bool // run one job first so characterization is not measured
		batch   LaneLoad
		inter   LaneLoad
		wait    time.Duration // Config.WaitTimeout: accepted jobs still live after it count as lost
		timeout time.Duration // bound on the whole case
	}{
		{
			name:    "chaos-stub",
			backend: &server.ChaosBackend{Inner: stubBackend{delay: 10 * time.Millisecond}, FailEvery: 9},
			queue:   4,
			trials:  2,
			batch:   LaneLoad{Rate: 200, Jobs: 40, APIKey: "flooder"},
			inter:   LaneLoad{Rate: 20, Jobs: 8, APIKey: "human"},
			wait:    60 * time.Second,
			timeout: 90 * time.Second,
		},
		{
			name:    "grid-rate-limited",
			backend: server.GridBackend{System: system()},
			queue:   8,
			tenants: `{"clients":{"key:batch-tenant":{"rate":8,"burst":8,"max_active":8}}}`,
			trials:  16,
			warmUp:  true,
			batch:   LaneLoad{Rate: 50, Jobs: 60, APIKey: "batch-tenant"},
			inter:   LaneLoad{Rate: 5, Jobs: 10, APIKey: "interactive-tenant"},
			wait:    2 * time.Minute, // fisimload's -wait-timeout default
			timeout: 5 * time.Minute,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tenants server.TenantsConfig
			if tc.tenants != "" {
				if err := json.Unmarshal([]byte(tc.tenants), &tenants); err != nil {
					t.Fatal(err)
				}
			}
			m := server.NewManager(server.Options{
				System:   system(),
				Parallel: 1,
				QueueCap: tc.queue,
				Tenants:  tenants,
				Backend:  tc.backend,
			})
			defer m.Shutdown(context.Background())
			ts := httptest.NewServer(server.Handler(m))
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
			defer cancel()
			if tc.warmUp {
				warm := LaneLoad{Priority: "interactive", Rate: 1, Jobs: 1, Spec: spec("interactive", 1, tc.trials), APIKey: tc.inter.APIKey}
				rep, err := Run(ctx, Config{Base: ts.URL, Lanes: []LaneLoad{warm}, WaitTimeout: tc.wait, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if done := rep.Lane("interactive").Done; done != 1 {
					t.Fatalf("warm-up job did not complete: %+v", rep)
				}
			}
			batchLoad, interLoad := tc.batch, tc.inter
			batchLoad.Priority, batchLoad.Spec = "batch", spec("batch", 10_000, tc.trials)
			interLoad.Priority, interLoad.Spec = "interactive", spec("interactive", 20_000, tc.trials)
			rep, err := Run(ctx, Config{
				Base:        ts.URL,
				Lanes:       []LaneLoad{batchLoad, interLoad},
				WaitTimeout: tc.wait,
				Seed:        42,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Invariant 1: no accepted job is ever lost.
			if rep.TotalLost != 0 {
				t.Fatalf("lost %d accepted jobs", rep.TotalLost)
			}
			batch, inter := rep.Lane("batch"), rep.Lane("interactive")
			if batch == nil || inter == nil {
				t.Fatalf("missing lane reports: %+v", rep.Lanes)
			}

			// Invariant 2: the flood actually overloaded the daemon, and
			// every shed response advertised when to come back.
			if batch.Submitted != tc.batch.Jobs || batch.Shed == 0 {
				t.Fatalf("batch lane not saturated: %+v", batch)
			}
			if batch.RetryAfterSeen != batch.Shed {
				t.Errorf("only %d of %d shed responses carried Retry-After", batch.RetryAfterSeen, batch.Shed)
			}

			// Invariant 3: every accepted job reached an honestly
			// reported terminal state (done, failed by chaos, or
			// displaced→canceled).
			for _, r := range []*LaneReport{batch, inter} {
				if terminal := r.Done + r.Failed + r.Canceled; terminal != r.Accepted {
					t.Errorf("%s lane: %d accepted but %d terminal (%+v)", r.Priority, r.Accepted, terminal, r)
				}
			}

			// Invariant 4: interactive work stays responsive under the
			// flood. Interactive arrivals displace queued batch work, so
			// even a generous bound catches priority inversion.
			if inter.Accepted == 0 {
				t.Fatal("no interactive job accepted under the flood")
			}
			if inter.Start.N > 0 && inter.Start.P99 > 5000 {
				t.Errorf("interactive p99 time-to-start = %.0fms under batch flood", inter.Start.P99)
			}
			if rep.DurationSec <= 0 {
				t.Errorf("report duration = %v", rep.DurationSec)
			}
			t.Logf("batch shed %d/%d, interactive p99 time-to-start %.0fms", batch.Shed, batch.Submitted, inter.Start.P99)
		})
	}
}

// TestDedupedLaneReporting pins the dedup accounting: identical specs
// collapse onto one job and every tracked submission still resolves.
func TestDedupedLaneReporting(t *testing.T) {
	m := server.NewManager(server.Options{System: system(), Backend: stubBackend{}})
	defer m.Shutdown(context.Background())
	ts := httptest.NewServer(server.Handler(m))
	defer ts.Close()

	fixed := func(i int) map[string]any {
		return map[string]any{
			"benches": []string{"median"}, "freqs": []float64{700},
			"trials": 2, "seed": int64(1),
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		Base:  ts.URL,
		Lanes: []LaneLoad{{Priority: "batch", Rate: 500, Jobs: 5, Spec: fixed}},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lane := rep.Lane("batch")
	if lane.Accepted != 1 || lane.Deduped != 4 {
		t.Fatalf("accepted=%d deduped=%d, want 1/4", lane.Accepted, lane.Deduped)
	}
	if lane.Lost != 0 || lane.Done != 5 {
		t.Errorf("lost=%d done=%d, want 0/5 (every tracked submission resolves)", lane.Lost, lane.Done)
	}
}

// TestFaultProxyInjects pins the proxy's three behaviours: pass-through
// transparency, injected 503s, and dropped connections.
func TestFaultProxyInjects(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("origin"))
	}))
	defer origin.Close()

	cases := []struct {
		name   string
		faults Faults
		check  func(t *testing.T, resp *http.Response, err error, p *FaultProxy)
	}{
		{"pass", Faults{}, func(t *testing.T, resp *http.Response, err error, p *FaultProxy) {
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("pass-through: resp=%v err=%v", resp, err)
			}
			if _, _, passed := p.Counts(); passed != 1 {
				t.Errorf("passed count = %d", passed)
			}
		}},
		{"error", Faults{ErrProb: 1}, func(t *testing.T, resp *http.Response, err error, p *FaultProxy) {
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("injected error: resp=%v err=%v", resp, err)
			}
			if _, errored, _ := p.Counts(); errored != 1 {
				t.Errorf("errored count = %d", errored)
			}
		}},
		{"drop", Faults{DropProb: 1}, func(t *testing.T, resp *http.Response, err error, p *FaultProxy) {
			if err == nil {
				resp.Body.Close()
				t.Fatal("dropped request still answered")
			}
			if dropped, _, _ := p.Counts(); dropped != 1 {
				t.Errorf("dropped count = %d", dropped)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewFaultProxy(origin.URL, tc.faults, 1)
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(p)
			defer front.Close()
			resp, err := http.Get(front.URL + "/anything")
			if err == nil {
				defer resp.Body.Close()
			}
			tc.check(t, resp, err, p)
		})
	}
}
