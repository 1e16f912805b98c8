package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The zero Map serves Gets without construction, and distinct keys keep
// distinct results.
func TestZeroValue(t *testing.T) {
	var m Map[string, int]
	for k, want := range map[string]int{"a": 1, "b": 2} {
		got, err := m.Get(k, func() (int, error) { return want, nil })
		if err != nil || got != want {
			t.Errorf("Get(%q) = %d, %v; want %d, nil", k, got, err, want)
		}
	}
	got, _ := m.Get("a", func() (int, error) { return 99, nil })
	if got != 1 {
		t.Errorf("second Get(a) = %d, want the cached 1", got)
	}
}

// 64 racers on one key run exactly one build and all receive its one
// result.
func TestOneBuildPerKey(t *testing.T) {
	var m Map[int, *int]
	var builds atomic.Int64
	start := make(chan struct{})
	const racers = 64
	got := make([]*int, racers)
	var wg sync.WaitGroup
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := m.Get(7, func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("racer %d got %p, racer 0 got %p: want one shared value", i, v, got[0])
		}
	}
}

// A failed build's error is cached and shared: a later Get returns the
// same error without running its build.
func TestErrorCached(t *testing.T) {
	var m Map[string, int]
	boom := errors.New("boom")
	if _, err := m.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Get err = %v, want %v", err, boom)
	}
	rebuilt := false
	_, err := m.Get("k", func() (int, error) { rebuilt = true; return 1, nil })
	if !errors.Is(err, boom) {
		t.Errorf("second Get err = %v, want the cached %v", err, boom)
	}
	if rebuilt {
		t.Error("second Get rebuilt a key whose build had failed")
	}
}

// A build parked on key A must not block a Get on key B: builds run
// outside the map lock.
func TestBuildsDoNotBlockOtherKeys(t *testing.T) {
	var m Map[string, int]
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Get("a", func() (int, error) {
			close(parked)
			<-release
			return 1, nil
		})
	}()
	<-parked
	got := make(chan int, 1)
	go func() {
		v, _ := m.Get("b", func() (int, error) { return 2, nil })
		got <- v
	}()
	select {
	case v := <-got:
		if v != 2 {
			t.Errorf("Get(b) = %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get(b) blocked behind the parked build of a")
	}
	close(release)
	<-done
}
