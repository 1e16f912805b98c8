package server

import (
	"context"
	"testing"
	"time"
)

// Submit canonicalizes and enqueues an anonymous job — the in-process
// convenience form of SubmitAs.
func (m *Manager) Submit(spec JobSpec) (*Job, bool, error) {
	return m.SubmitAs("", spec)
}

// TestObserveLockedZeroSeed is the regression test for the EWMA seeding
// sentinel: a first observation with zero per-cell seconds (an instant
// fake-backend job, or a sub-resolution real one) is a legitimate data
// point, not "no history". The old code used ewmaCellSec == 0 as the
// unseeded marker, so the next slow job silently re-seeded the average
// to its full value instead of blending in at alpha.
func TestObserveLockedZeroSeed(t *testing.T) {
	m := NewManager(Options{System: system(), Backend: &fakeBackend{}, Parallel: 1})
	defer m.Shutdown(context.Background())

	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked(0, 10) // instant job: perCell = 0, a real observation
	if !m.ewmaSeeded {
		t.Fatal("first observation did not seed the EWMAs")
	}
	if m.ewmaCellSec != 0 || m.ewmaJobCells != 10 {
		t.Fatalf("seed observation: cellSec=%v jobCells=%v, want 0, 10", m.ewmaCellSec, m.ewmaJobCells)
	}

	m.observeLocked(100*time.Second, 1)
	// alpha = 0.3: blend, don't re-seed to (100, 1).
	if got, want := m.ewmaCellSec, 30.0; got != want {
		t.Errorf("ewmaCellSec after slow job = %v, want %v (alpha blend, not a re-seed)", got, want)
	}
	// Same float ops as observeLocked, so the comparison is exact.
	want := 10.0
	want += 0.3 * (1 - want)
	if got := m.ewmaJobCells; got != want {
		t.Errorf("ewmaJobCells after slow job = %v, want %v", got, want)
	}
}

// TestDedupHitSurvivesEviction is the regression for the KeepJobs
// eviction edge: a resubmission that dedups onto the oldest terminal
// job must keep that job readable even when the very next submission
// pushes the table over KeepJobs. Eviction drops the least recently
// submitted-or-deduped terminal job, so B goes instead of A.
func TestDedupHitSurvivesEviction(t *testing.T) {
	m := NewManager(Options{System: system(), Backend: &fakeBackend{}, Parallel: 1, KeepJobs: 2})
	defer m.Shutdown(context.Background())

	submitDone := func(seed int64) (*Job, bool) {
		t.Helper()
		j, deduped, err := m.Submit(smallSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := m.Wait(context.Background(), j.ID); err != nil || st.State != StateDone {
			t.Fatalf("job %s: state %v, err %v", j.ID, st.State, err)
		}
		return j, deduped
	}
	a, _ := submitDone(1)
	b, _ := submitDone(2)
	submitDone(3) // eviction runs on submission, so A, B and C are all retained
	again, deduped := submitDone(1)
	if !deduped || again != a {
		t.Fatalf("resubmitting A: deduped %v onto %s, want A (%s)", deduped, again.ID, a.ID)
	}
	submitDone(4) // three terminal jobs over KeepJobs 2: one goes

	if _, err := m.Result(a.ID); err != nil {
		t.Fatalf("deduped job A evicted before its result was read: %v", err)
	}
	if _, err := m.Result(b.ID); err == nil {
		t.Errorf("B, the least recently used terminal job, was not evicted")
	}
}
