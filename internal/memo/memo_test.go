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

// Lookup reports only a finished, successful build: an absent key, a
// failed build and a panicked one are false, and a build in flight is
// waited for rather than reported half-done. It never adds a key.
func TestLookup(t *testing.T) {
	var m Map[string, int]
	if _, ok := m.Lookup("absent"); ok {
		t.Error("Lookup of a key no Get asked for reported true")
	}
	if v, _ := m.Get("absent", func() (int, error) { return 3, nil }); v != 3 {
		t.Errorf("Get after Lookup = %d, want its own build's 3: Lookup added the key", v)
	}
	if v, ok := m.Lookup("absent"); !ok || v != 3 {
		t.Errorf("Lookup after Get = %d, %v; want 3, true", v, ok)
	}
	m.Get("failed", func() (int, error) { return 4, errors.New("boom") })
	if _, ok := m.Lookup("failed"); ok {
		t.Error("Lookup reported a failed build")
	}
	func() {
		defer func() { recover() }()
		m.Get("panicked", func() (int, error) { panic("boom") })
	}()
	if _, ok := m.Lookup("panicked"); ok {
		t.Error("Lookup reported a panicked build")
	}
	if _, err := m.Get("panicked", nil); !errors.Is(err, errPanicked) {
		t.Errorf("Get after a panicked build: err %v, want %v", err, errPanicked)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	go m.Get("inflight", func() (int, error) {
		close(parked)
		<-release
		return 5, nil
	})
	<-parked
	type result struct {
		v  int
		ok bool
	}
	got := make(chan result, 1)
	go func() {
		v, ok := m.Lookup("inflight")
		got <- result{v, ok}
	}()
	select {
	case r := <-got:
		t.Fatalf("Lookup returned %+v while the build was in flight", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-got; !r.ok || r.v != 5 {
		t.Errorf("Lookup of the finished build = %+v, want {5 true}", r)
	}
}
