package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dta"
	"repro/internal/leaktest"
	"repro/internal/mc"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

// system returns a shared small-DTA stack, like the mc tests use.
func system() *core.System {
	sysOnce.Do(func() {
		sys = core.New(testConfig())
	})
	return sys
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 768, Seed: 5}
	return cfg
}

// smallSpec is a fast two-point grid used across the tests.
func smallSpec(seed int64) JobSpec {
	return JobSpec{
		Benches: []string{"median"},
		Models:  []string{"C"},
		Vdds:    []float64{0.7},
		Sigmas:  []float64{0.010},
		Freqs:   []float64{700, 720},
		Trials:  6,
		Seed:    seed,
	}
}

func waitDone(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if !st.State.Terminal() {
		t.Fatalf("job %s not terminal after wait: %s", id, st.State)
	}
	return st
}

// TestCanonicalizeFingerprint pins the dedup identity: a spec with
// defaults spelled out, one relying on defaulting, and one using the
// frequency-range shorthand all share a fingerprint; changing any
// Monte-Carlo input changes it.
func TestCanonicalizeFingerprint(t *testing.T) {
	base, err := smallSpec(1).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	fpr := func(s JobSpec) string {
		c, err := s.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		return c.Fingerprint("sysfp")
	}
	want := base.Fingerprint("sysfp")

	// Defaults spelled out vs omitted.
	sparse := JobSpec{Benches: []string{"median"}, Sigmas: []float64{0.010}, Freqs: []float64{700, 720}, Trials: 6, Seed: 1}
	if fpr(sparse) != want {
		t.Error("defaulted spec fingerprint differs from explicit spec")
	}
	// Range shorthand vs explicit list.
	ranged := smallSpec(1)
	ranged.Freqs = nil
	ranged.FreqLo, ranged.FreqHi, ranged.FreqStep = 700, 720, 20
	if fpr(ranged) != want {
		t.Error("freq-range spec fingerprint differs from freq-list spec")
	}
	// Any input change must separate.
	for name, mut := range map[string]func(*JobSpec){
		"seed":   func(s *JobSpec) { s.Seed = 2 },
		"trials": func(s *JobSpec) { s.Trials = 7 },
		"mode":   func(s *JobSpec) { s.Mode = "full" },
		"sigma":  func(s *JobSpec) { s.Sigmas = []float64{0.011} },
	} {
		s := smallSpec(1)
		mut(&s)
		if fpr(s) == want {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	// The system fingerprint is part of the identity.
	if base.Fingerprint("other-system") == want {
		t.Error("system fingerprint not folded into job fingerprint")
	}
}

func hugeFreqs() []float64 {
	out := make([]float64, MaxFreqs+1)
	for i := range out {
		out[i] = 700
	}
	return out
}

func manyVals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.7
	}
	return out
}

func TestCanonicalizeRejects(t *testing.T) {
	bad := []JobSpec{
		{}, // no benches
		{Benches: []string{"nope"}, Freqs: []float64{700}},                                      // unknown bench
		{Benches: []string{"median"}},                                                           // no freqs
		{Benches: []string{"median"}, Freqs: []float64{-1}},                                     // bad freq
		{Benches: []string{"median"}, Freqs: []float64{700}, Models: []string{"D"}},             // bad model
		{Benches: []string{"median"}, Freqs: []float64{700}, Mode: "bogus"},                     // bad mode
		{Benches: []string{"median"}, Freqs: []float64{700}, TrialsMin: 5},                      // min without max
		{Benches: []string{"median"}, Freqs: []float64{700}, FreqLo: 1, FreqHi: 2, FreqStep: 1}, // both forms
		{Benches: []string{"median"}, FreqLo: 1, FreqHi: 1e12, FreqStep: 1e-6},                  // range past MaxFreqs
		{Benches: []string{"median"}, Freqs: hugeFreqs()},                                       // explicit list past MaxFreqs
		{Benches: []string{"median"}, Freqs: []float64{700},
			Vdds: manyVals(512), Sigmas: manyVals(512), Models: []string{"none", "A", "B", "B+", "C"}}, // grid past MaxCells
		{Benches: []string{"median"}, Freqs: []float64{700}, Trials: MaxTrials + 1},          // trials past MaxTrials
		{Benches: []string{"median"}, Freqs: []float64{700}, TrialsMax: MaxTrials + 1},       // adaptive budget past MaxTrials
		{Benches: []string{"median"}, Freqs: []float64{700}, WatchdogFactor: 1e300},          // watchdog overflow
		{Benches: []string{"median"}, Freqs: []float64{700}, WatchdogFactor: math.NaN()},     // watchdog NaN
		{Benches: []string{"median"}, Freqs: []float64{700}, Vdds: []float64{0}},             // zero supply
		{Benches: []string{"median"}, Freqs: []float64{700}, Vdds: []float64{0.7, -0.7}},     // negative supply
		{Benches: []string{"median"}, Freqs: []float64{700}, Vdds: []float64{math.NaN()}},    // NaN supply
		{Benches: []string{"median"}, Freqs: []float64{700}, Vdds: []float64{math.Inf(1)}},   // infinite supply
		{Benches: []string{"median"}, Freqs: []float64{700}, Sigmas: []float64{-0.01}},       // negative sigma
		{Benches: []string{"median"}, Freqs: []float64{700}, Sigmas: []float64{math.NaN()}},  // NaN sigma
		{Benches: []string{"median"}, Freqs: []float64{700}, Sigmas: []float64{math.Inf(1)}}, // infinite sigma
		{Benches: []string{"median"}, Freqs: []float64{math.NaN()}},                          // NaN freq
		{Benches: []string{"median"}, FreqLo: -100, FreqHi: -100, FreqStep: 25},              // negative range
		{Benches: []string{"median"}, FreqLo: 650, FreqHi: 1100},                             // zero step
	}
	for i, s := range bad {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestMaxJobTrials pins the job trial bound: a grid budgeting exactly
// MaxJobTrials trials canonicalizes, one adaptive ceiling past it is
// refused, and POST /v1/jobs answers that spec with 400.
func TestMaxJobTrials(t *testing.T) {
	freqs := mc.FreqRange(700, 763, 1) // 64 cells
	at := JobSpec{Benches: []string{"median"}, Freqs: freqs, Trials: MaxJobTrials / len(freqs)}
	if _, err := at.Canonicalize(); err != nil {
		t.Fatalf("spec at the bound (%d cells × %d trials) refused: %v", len(freqs), at.Trials, err)
	}
	over := JobSpec{Benches: []string{"median"}, Freqs: freqs, TrialsMax: MaxJobTrials/len(freqs) + 1}
	if _, err := over.Canonicalize(); err == nil {
		t.Fatalf("spec past the bound (%d cells × %d trials_max) accepted", len(freqs), over.TrialsMax)
	}

	m := NewManager(Options{System: system()})
	defer m.Shutdown(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	blob, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/jobs past the bound: status %d, want 400", resp.StatusCode)
	}
}

// FuzzCanonicalize decodes arbitrary request bodies the way the HTTP
// handler does and checks that canonicalization is idempotent — a
// canonical spec canonicalizes to itself, with the same fingerprint —
// so dedup identity cannot drift on a second pass. Bodies that fail the
// first pass must fail with an error, never a panic.
func FuzzCanonicalize(f *testing.F) {
	ranged := smallSpec(1)
	ranged.Freqs = nil
	ranged.FreqLo, ranged.FreqHi, ranged.FreqStep = 700, 720, 20
	for _, s := range []JobSpec{smallSpec(1), ranged} {
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// Hostile: alias spellings, a range far past MaxFreqs, an
	// overflowing watchdog factor and an unknown priority; a negative
	// sigma.
	f.Add([]byte(`{"benches":["median","median"],"models":[],"mode":"scan","freq_lo":1,"freq_hi":1e300,"freq_step":1e-300,"watchdog_factor":1e300,"trials":-5,"trials_max":9,"priority":"urgent"}`))
	f.Add([]byte(`{"benches":["median"],"sigmas":[-0.01],"freqs":[700]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var s JobSpec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		c1, err := s.Canonicalize()
		if err != nil {
			return
		}
		c2, err := c1.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec rejected on the second pass: %v\n%+v", err, c1)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("canonicalization not idempotent:\nonce  %+v\ntwice %+v", c1, c2)
		}
		if c1.Fingerprint("sysfp") != c2.Fingerprint("sysfp") {
			t.Fatalf("fingerprint changed on the second pass: %+v", c1)
		}
	})
}

// TestConcurrentSubmitDedup is the headline contract: N concurrent
// clients submitting overlapping specs observe exactly one underlying
// run per unique fingerprint, and every client of a shared job reads
// byte-identical result bytes.
func TestConcurrentSubmitDedup(t *testing.T) {
	m := NewManager(Options{System: system()})
	defer m.Shutdown(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	// 12 clients, 2 unique specs (seeds 1 and 2), submitted in parallel.
	const clients = 12
	type sub struct {
		id      string
		deduped bool
	}
	subs := make([]sub, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := smallSpec(int64(1 + i%2))
			blob, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sr SubmitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Error(err)
				return
			}
			subs[i] = sub{id: sr.ID, deduped: sr.Deduped}
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	deduped := 0
	for _, s := range subs {
		ids[s.id] = true
		if s.deduped {
			deduped++
		}
	}
	if len(ids) != 2 {
		t.Fatalf("12 submissions over 2 unique specs produced %d job IDs (%v), want 2", len(ids), ids)
	}
	if deduped != clients-2 {
		t.Errorf("deduped=%d, want %d", deduped, clients-2)
	}
	for id := range ids {
		waitDone(t, m, id)
	}
	if st := m.Stats(); st.Executed != 2 || st.Submitted != clients || st.Deduped != int64(clients-2) {
		t.Errorf("stats = %+v, want Executed=2 Submitted=%d Deduped=%d", st, clients, clients-2)
	}

	// Every client fetches its job's result; bytes must match exactly
	// per job, for both formats.
	for _, format := range []string{"json", "csv"} {
		byID := map[string][]byte{}
		for _, s := range subs {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + s.id + "/result?format=" + format)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s: %s: %s", s.id, resp.Status, body)
			}
			if prev, ok := byID[s.id]; ok {
				if !bytes.Equal(prev, body) {
					t.Errorf("job %s: %s result bytes differ between clients", s.id, format)
				}
			} else {
				byID[s.id] = body
			}
		}
		// Different fingerprints must not share results: the two unique
		// jobs used different seeds.
		var bodies [][]byte
		for _, b := range byID {
			bodies = append(bodies, b)
		}
		if len(bodies) == 2 && bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("distinct jobs returned identical %s bytes", format)
		}
	}

	// A post-completion resubmission still dedups onto the retained job.
	blob, _ := json.Marshal(smallSpec(1))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if !sr.Deduped || !ids[sr.ID] {
		t.Errorf("warm resubmission: deduped=%v id=%s, want dedup onto a prior job", sr.Deduped, sr.ID)
	}
	if st := m.Stats(); st.Executed != 2 {
		t.Errorf("warm resubmission re-executed: Executed=%d", st.Executed)
	}
}

// TestModeAliasDedupsOntoFull pins the historical mode spellings onto
// the canonical modes: "scan" and "replay" canonicalize to "full" (and
// "first-fault" to "auto"), so a scan submission dedups onto a live full
// job — one execution — and a scan job run on its own returns exactly
// the full job's result bytes.
func TestModeAliasDedupsOntoFull(t *testing.T) {
	for alias, want := range map[string]string{
		"scan": "full", "replay": "full", "full": "full",
		"first-fault": "auto", "firstfault": "auto", "": "auto",
	} {
		spec := smallSpec(1)
		spec.Mode = alias
		c, err := spec.Canonicalize()
		if err != nil || c.Mode != want {
			t.Errorf("Canonicalize(mode %q) = %q, %v; want %q", alias, c.Mode, err, want)
		}
	}

	submit := func(url string, spec JobSpec) SubmitResponse {
		t.Helper()
		blob, _ := json.Marshal(spec)
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	result := func(url, id, format string) []byte {
		t.Helper()
		resp, err := http.Get(url + "/v1/jobs/" + id + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %s: %s", id, resp.Status, body)
		}
		return body
	}
	full := smallSpec(41)
	full.Mode = "full"
	full.Trials = 60
	scan := full
	scan.Mode = "scan"

	m := NewManager(Options{System: system()})
	defer m.Shutdown(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()
	fj := submit(ts.URL, full)
	sj := submit(ts.URL, scan)
	if !sj.Deduped || sj.ID != fj.ID {
		t.Fatalf("scan submission: deduped=%v id=%s, want dedup onto full job %s", sj.Deduped, sj.ID, fj.ID)
	}
	if st := waitDone(t, m, fj.ID); st.State != StateDone || st.Spec.Mode != "full" {
		t.Fatalf("full job: state %s, mode %q", st.State, st.Spec.Mode)
	}
	if st := m.Stats(); st.Executed != 1 {
		t.Errorf("scan + full submissions executed %d jobs, want 1", st.Executed)
	}

	// A scan job on a fresh daemon computes the same bytes on its own.
	m2 := NewManager(Options{System: system()})
	defer m2.Shutdown(context.Background())
	ts2 := httptest.NewServer(Handler(m2))
	defer ts2.Close()
	alone := submit(ts2.URL, scan)
	waitDone(t, m2, alone.ID)
	for _, format := range []string{"json", "csv"} {
		if !bytes.Equal(result(ts.URL, fj.ID, format), result(ts2.URL, alone.ID, format)) {
			t.Errorf("%s result of a scan job differs from the full job's", format)
		}
	}
}

// TestWarmResubmitServesFromStore pins the cross-process dedup layer:
// a fresh daemon (new System, new Manager) over a warm artifact store
// answers a repeated grid job from checkpointed cells without
// recharacterizing, re-recording or re-running a single trial.
func TestWarmResubmitServesFromStore(t *testing.T) {
	dir := t.TempDir()

	run := func() (Status, *core.System, *Manager) {
		store, err := artifact.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := core.New(testConfig())
		s.AttachStore(store)
		m := NewManager(Options{System: s, Store: store})
		j, deduped, err := m.Submit(smallSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		if deduped {
			t.Fatal("fresh manager reported dedup")
		}
		st := waitDone(t, m, j.ID)
		if st.State != StateDone {
			t.Fatalf("job state %s: %s", st.State, st.Error)
		}
		m.Shutdown(context.Background())
		return st, s, m
	}

	cold, _, _ := run()
	if cold.CachedCells != 0 {
		t.Fatalf("cold run served %d cached cells", cold.CachedCells)
	}
	warm, warmSys, warmMgr := run()
	if warm.CachedCells != warm.Cells || warm.Cells == 0 {
		t.Fatalf("warm run: %d/%d cells cached, want all", warm.CachedCells, warm.Cells)
	}
	if n := warmSys.Char.ComputedCount(); n != 0 {
		t.Errorf("warm run computed %d characterizations", n)
	}
	if n := warmSys.GoldenRecordedCount(); n != 0 {
		t.Errorf("warm run recorded %d golden traces", n)
	}

	// /v1/stats serves the store counters as a "store" object whose JSON
	// spelling is part of the API (docs/API.md).
	rec := httptest.NewRecorder()
	Handler(warmMgr).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, stats["store"]); err != nil {
		t.Fatal(err)
	}
	ss := warmSys.ArtifactStore().Stats()
	want := fmt.Sprintf(`{"hits":%d,"misses":%d,"puts":%d}`, ss.Hits, ss.Misses, ss.Puts)
	if got.String() != want || ss.Hits == 0 {
		t.Errorf("/v1/stats store = %s, want %s with hits > 0", got.String(), want)
	}
}

// cancelGate wraps a Backend so that its run cannot finish before the
// job is cancelled: the first progress report, sent after the grid's
// first completed trial, blocks until the job's context is done. A
// cancel issued on the running state therefore lands while the grid is
// provably mid-run, however fast the trials are.
type cancelGate struct{ inner Backend }

func (g cancelGate) Run(ctx context.Context, spec JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	var once sync.Once
	return g.inner.Run(ctx, spec, func(p mc.Progress) {
		onProgress(p)
		once.Do(func() { <-ctx.Done() })
	})
}

// TestCancelRunning cancels a job mid-run and expects a canceled
// terminal state with partial progress.
func TestCancelRunning(t *testing.T) {
	sys := system()
	m := NewManager(Options{System: sys, Backend: cancelGate{GridBackend{System: sys}}})
	defer m.Shutdown(context.Background())

	spec := smallSpec(7)
	spec.Mode = "full" // full execution: slow enough to catch mid-run
	spec.Trials = 4000
	spec.Freqs = []float64{700}
	j, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the job reports running progress.
	ch, cancelSub, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()
	go func() {
		for p := range ch {
			if p.State == StateRunning {
				m.Cancel(j.ID)
				return
			}
		}
	}()
	st := waitDone(t, m, j.ID)
	if st.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want canceled", st.State, st.Error)
	}
	if st.Progress != nil && st.Progress.DoneTrials >= 4000 {
		t.Errorf("cancelled job completed all %d trials", st.Progress.DoneTrials)
	}
	// A cancelled fingerprint does not satisfy dedup: resubmitting
	// schedules a fresh job.
	j2, deduped, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j2.ID == j.ID {
		t.Errorf("resubmit after cancel deduped onto the dead job")
	}
	m.Cancel(j2.ID)
	waitDone(t, m, j2.ID)
}

// TestCancelQueued cancels a job that never left the queue.
func TestCancelQueued(t *testing.T) {
	m := NewManager(Options{System: system(), Parallel: 1})
	defer m.Shutdown(context.Background())

	blocker := smallSpec(11)
	blocker.Mode = "full"
	blocker.Trials = 4000
	blocker.Freqs = []float64{700}
	jb, _, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := m.Submit(smallSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	if st := waitDone(t, m, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	m.Cancel(jb.ID)
	waitDone(t, m, jb.ID)
	// The runner must not resurrect the cancelled queued job.
	if st, _ := m.Status(queued.ID); st.State != StateCanceled {
		t.Errorf("queued job resurrected to %s", st.State)
	}
}

// TestShutdownDrains verifies the drain contract: submitted jobs finish,
// later submissions are refused, and no runner or job goroutine
// outlives the drain.
func TestShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(Options{System: system()})
	j, _, err := m.Submit(smallSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st, err := m.Status(j.ID); err != nil || st.State != StateDone {
		t.Fatalf("drained job: state=%v err=%v, want done", st.State, err)
	}
	if _, _, err := m.Submit(smallSpec(22)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	leaktest.Settles(t, base)
}

// TestHTTPLifecycle exercises the full wire surface: submit, long-poll
// wait, status, SSE stream, result negotiation, cancel of a finished
// job, and 404s.
func TestHTTPLifecycle(t *testing.T) {
	m := NewManager(Options{System: system()})
	defer m.Shutdown(context.Background())
	ts := httptest.NewServer(Handler(m))
	defer ts.Close()

	blob, _ := json.Marshal(smallSpec(31))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()

	// Long-poll until terminal.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sr.ID + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone {
		t.Fatalf("long-poll state = %s (%s)", st.State, st.Error)
	}
	if st.Cells != 2 {
		t.Errorf("cells = %d, want 2", st.Cells)
	}

	// SSE on a terminal job delivers exactly the done event.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type = %q", ct)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
	}
	resp.Body.Close()
	if !sawDone {
		t.Error("SSE stream ended without a done event")
	}

	// Accept-header negotiation yields CSV.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+sr.ID+"/result", nil)
	req.Header.Set("Accept", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("Accept text/csv got content-type %q", ct)
	}
	if !strings.Contains(string(body), "freq_mhz") {
		t.Errorf("CSV result missing header: %.100s", body)
	}

	// Cancelling a finished job is a no-op.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Canceled bool  `json:"canceled"`
		State    State `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if cr.Canceled || cr.State != StateDone {
		t.Errorf("cancel of done job: %+v", cr)
	}

	// Unknown jobs 404 everywhere.
	for _, path := range []string{"/v1/jobs/jx", "/v1/jobs/jx/result", "/v1/jobs/jx/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %s, want 404", path, resp.Status)
		}
	}

	// Malformed and invalid specs are 400s.
	for _, payload := range []string{"{", `{"benches":[]}`, `{"unknown_field":1}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q status = %s, want 400", payload, resp.Status)
		}
	}

	// Stats report the traffic.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Jobs.Submitted < 1 || stats.Cache == "" {
		t.Errorf("stats = %+v", stats)
	}
}

// TestQueueFull pins the bounded-queue contract.
func TestQueueFull(t *testing.T) {
	m := NewManager(Options{System: system(), Parallel: 1, QueueCap: 1})
	defer m.Shutdown(context.Background())

	blocker := smallSpec(41)
	blocker.Mode = "full"
	blocker.Trials = 4000
	blocker.Freqs = []float64{700}
	jb, _, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// One fits in the queue; the next unique spec must be refused.
	var kept []*Job
	full := false
	for seed := int64(42); seed < 48; seed++ {
		j, _, err := m.Submit(smallSpec(seed))
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, j)
	}
	if !full {
		t.Error("bounded queue never filled")
	}
	m.Cancel(jb.ID)
	for _, j := range kept {
		m.Cancel(j.ID)
	}
	waitDone(t, m, jb.ID)
	for _, j := range kept {
		waitDone(t, m, j.ID)
	}
}

// A "models":["A"] job carries no flip probability on the wire; it
// lowers onto grid cells at core.DefaultProbA, so the daemon's model A
// injects faults instead of running at probability zero.
func TestModelAJobLowersToDefaultProbA(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"benches":["median"],"models":["A"],"freqs":[700,1000],"trials":4}`), &spec); err != nil {
		t.Fatal(err)
	}
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Grid(system(), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range g.Cells() {
		if cell.Model.Kind != "A" || cell.Model.ProbA != core.DefaultProbA {
			t.Errorf("cell %+v: want kind A at ProbA %v", cell.Model, core.DefaultProbA)
		}
	}
}

// A supply at or below the serving System's threshold voltage is a
// client error for every model kind: fisimd answers 400 naming the
// entry, and Grid, which every CLI lowers its flags through, fails
// before any work.
func TestSubThresholdSupplyRejected(t *testing.T) {
	vt := system().Cfg.Vdd.Vt
	cases := []struct {
		name string
		run  func(spec JobSpec) (status int, err string)
	}{
		{"http", func(spec JobSpec) (int, string) {
			m := NewManager(Options{System: system()})
			defer m.Shutdown(context.Background())
			ts := httptest.NewServer(Handler(m))
			defer ts.Close()
			blob, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			return resp.StatusCode, e.Error
		}},
		{"grid", func(spec JobSpec) (int, string) {
			c, err := spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Grid(system(), nil, 1, nil); err != nil {
				return http.StatusBadRequest, err.Error()
			}
			return http.StatusOK, ""
		}},
	}
	for _, tc := range cases {
		for _, model := range []string{"none", "A", "B", "C"} {
			spec := JobSpec{Benches: []string{"median"}, Models: []string{model},
				Vdds: []float64{0.7, vt}, Freqs: []float64{700}, Trials: 2}
			status, msg := tc.run(spec)
			if status != http.StatusBadRequest || !strings.Contains(msg, "vdds[1]") {
				t.Errorf("%s, model %s, vdds %v: status %d, error %q; want 400 naming vdds[1]",
					tc.name, model, spec.Vdds, status, msg)
			}
		}
	}
}
