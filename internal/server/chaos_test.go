package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mc"
)

// errInjected is the failure chaosBackend injects; chaos tests assert
// the job's recorded cause wraps it.
var errInjected = errors.New("chaos: injected backend fault")

// chaosBackend wraps a Backend with injectable faults for the chaos
// tests: a fixed per-job startup delay (slow backend) and a
// deterministic every-Nth-job failure that aborts the inner run
// mid-grid. It documents by construction what failure modes the
// manager is hardened against.
type chaosBackend struct {
	Inner Backend
	// Delay is slept (context-aware) before every run.
	Delay time.Duration
	// FailEvery injects a failure into every Nth run (1 = every run,
	// 0 = never).
	FailEvery int
	// FailAfterPoints lets the doomed run complete this many grid points
	// before aborting, so the store holds a genuine partial checkpoint;
	// 0 fails before the run starts.
	FailAfterPoints int

	mu   sync.Mutex
	runs int
}

// Runs reports how many runs the backend has seen.
func (c *chaosBackend) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Run delays, then either executes the inner backend transparently or —
// on a doomed run — aborts it after FailAfterPoints completed points
// and reports errInjected as the cause.
func (c *chaosBackend) Run(ctx context.Context, spec JobSpec, onProgress func(mc.Progress)) ([]mc.CellResult, error) {
	c.mu.Lock()
	c.runs++
	doomed := c.FailEvery > 0 && c.runs%c.FailEvery == 0
	c.mu.Unlock()

	if c.Delay > 0 {
		select {
		case <-time.After(c.Delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if !doomed {
		return c.Inner.Run(ctx, spec, onProgress)
	}
	if c.FailAfterPoints <= 0 {
		return nil, fmt.Errorf("%w (before start)", errInjected)
	}
	// Let the inner run make real progress, then cut it down through its
	// own context — exactly the shape of a worker dying mid-grid — and
	// report the injected cause, not the cancellation.
	inner, abort := context.WithCancel(ctx)
	defer abort()
	var once sync.Once
	cells, err := c.Inner.Run(inner, spec, func(p mc.Progress) {
		if p.DonePoints >= c.FailAfterPoints {
			once.Do(abort)
		}
		onProgress(p)
	})
	if err == nil || (errors.Is(err, context.Canceled) && ctx.Err() == nil) {
		// Finished before the axe fell (grid smaller than the threshold),
		// or aborted by us rather than the caller: either way this run
		// was doomed, so surface the injected fault.
		return cells, fmt.Errorf("%w (after %d points)", errInjected, c.FailAfterPoints)
	}
	return cells, err
}

// TestChaosBackendFailureMarksFailed drives a flaky backend: an
// injected fault mid-run marks the job failed with the injected cause,
// the failure does not satisfy dedup, and stats count it honestly.
func TestChaosBackendFailureMarksFailed(t *testing.T) {
	chaos := &chaosBackend{Inner: &fakeBackend{}, FailEvery: 2}
	m := NewManager(Options{System: system(), Backend: chaos})
	defer m.Shutdown(context.Background())

	// Run 1 (doomed: FailEvery=2 dooms runs 2, 4, ... — run 1 survives).
	ok1, _, err := m.Submit(smallSpec(701))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, m, ok1.ID); st.State != StateDone {
		t.Fatalf("run 1 state = %s (%s), want done", st.State, st.Error)
	}
	// Run 2 is doomed.
	bad, _, err := m.Submit(smallSpec(702))
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, m, bad.ID)
	if st.State != StateFailed {
		t.Fatalf("doomed run state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, errInjected.Error()) {
		t.Errorf("failure cause %q does not carry the injected fault", st.Error)
	}
	if _, err := m.Result(bad.ID); err == nil {
		t.Error("failed job served a result")
	}
	// A failed fingerprint must not satisfy dedup: the resubmission is a
	// fresh job (run 3, which survives).
	retry, deduped, err := m.Submit(smallSpec(702))
	if err != nil {
		t.Fatal(err)
	}
	if deduped || retry.ID == bad.ID {
		t.Fatalf("resubmit after failure deduped onto the dead job %s", bad.ID)
	}
	if st := waitDone(t, m, retry.ID); st.State != StateDone {
		t.Fatalf("resubmitted run state = %s (%s), want done", st.State, st.Error)
	}
	if got := m.Stats(); got.Failed != 1 || got.Done != 2 {
		t.Errorf("stats = %+v, want Failed=1 Done=2", got)
	}
	if chaos.Runs() != 3 {
		t.Errorf("backend saw %d runs, want 3", chaos.Runs())
	}
}

// TestChaosMidGridFailureResumesFromStore is the S4 headline: a real
// grid run killed mid-grid leaves the artifact store uncorrupted with a
// genuine partial checkpoint, and a healthy daemon over the same store
// completes the same job from the cached cells.
func TestChaosMidGridFailureResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec(77) // two grid points

	// Pass 1: the chaos backend aborts the grid after one completed
	// point, exactly like a worker dying mid-run.
	store1, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := core.New(testConfig())
	sys1.AttachStore(store1)
	chaos := &chaosBackend{
		Inner:           GridBackend{System: sys1, Store: store1},
		FailEvery:       1,
		FailAfterPoints: 1,
	}
	m1 := NewManager(Options{System: sys1, Store: store1, Backend: chaos})
	j, _, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, m1, j.ID)
	if st.State != StateFailed {
		t.Fatalf("chaos run state = %s (%s), want failed", st.State, st.Error)
	}
	if !strings.Contains(st.Error, errInjected.Error()) {
		t.Errorf("chaos run cause %q does not carry the injected fault", st.Error)
	}
	m1.Shutdown(context.Background())

	// Pass 2: a fresh daemon with a healthy backend over the same store.
	// The job must complete, serving the checkpointed prefix from cache —
	// proof the mid-grid failure corrupted nothing.
	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := core.New(testConfig())
	sys2.AttachStore(store2)
	m2 := NewManager(Options{System: sys2, Store: store2})
	defer m2.Shutdown(context.Background())
	j2, deduped, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("fresh daemon reported in-memory dedup")
	}
	st2 := waitDone(t, m2, j2.ID)
	if st2.State != StateDone {
		t.Fatalf("warm resubmit state = %s (%s), want done", st2.State, st2.Error)
	}
	if st2.Cells != 2 {
		t.Fatalf("warm resubmit cells = %d, want 2", st2.Cells)
	}
	if st2.CachedCells < 1 {
		t.Errorf("warm resubmit served %d cached cells, want the checkpointed prefix (>=1)", st2.CachedCells)
	}
	if _, err := m2.Result(j2.ID); err != nil {
		t.Errorf("warm resubmit result: %v", err)
	}
}

// TestChaosSlowBackendCancel pins that a slow backend stays cancellable:
// the injected delay is context-aware, so a cancel lands immediately.
func TestChaosSlowBackendCancel(t *testing.T) {
	chaos := &chaosBackend{Inner: &fakeBackend{}, Delay: time.Hour}
	m := NewManager(Options{System: system(), Backend: chaos})
	defer m.Shutdown(context.Background())

	j, _, err := m.Submit(smallSpec(703))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, j.ID)
	start := time.Now()
	if ok, err := m.Cancel(j.ID); err != nil || !ok {
		t.Fatalf("cancel: ok=%v err=%v", ok, err)
	}
	st := waitDone(t, m, j.ID)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancel of a delayed run took %s", waited)
	}
}
