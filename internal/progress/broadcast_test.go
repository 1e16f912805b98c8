package progress

import (
	"sync"
	"testing"
)

func TestBroadcasterCoalesces(t *testing.T) {
	b := NewBroadcaster[int]()
	ch, cancel := b.Subscribe()
	defer cancel()

	// Without a consumer, later values replace earlier ones.
	b.Publish(1)
	b.Publish(2)
	b.Publish(3)
	if got := <-ch; got != 3 {
		t.Fatalf("coalesced value = %d, want 3", got)
	}

	// A fresh subscriber is seeded with the latest value.
	ch2, cancel2 := b.Subscribe()
	defer cancel2()
	if got := <-ch2; got != 3 {
		t.Fatalf("seeded value = %d, want 3", got)
	}
}

// TestBroadcasterCloseWith pins the atomic terminal publish: every live
// subscriber sees the final value (replacing any stale pending one)
// before its channel closes, and late subscribers are seeded with it.
func TestBroadcasterCloseWith(t *testing.T) {
	b := NewBroadcaster[string]()
	ch, cancel := b.Subscribe()
	defer cancel()
	b.Publish("stale") // never consumed: the terminal value must replace it

	b.CloseWith("final")
	if got, ok := <-ch; !ok || got != "final" {
		t.Fatalf("subscriber saw %q, %v; want final, true", got, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after CloseWith")
	}
	if last, ok := b.Last(); !ok || last != "final" {
		t.Fatalf("Last() = %q, %v after CloseWith", last, ok)
	}

	// Late subscribers get exactly the terminal value, then close.
	ch2, cancel2 := b.Subscribe()
	cancel2()
	if got, ok := <-ch2; !ok || got != "final" {
		t.Fatalf("late subscription = %q, %v; want final, true", got, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("late subscription not closed after the terminal value")
	}

	// Publishing after CloseWith is dropped.
	b.Publish("after")
	if last, _ := b.Last(); last != "final" {
		t.Fatalf("Last() = %q after post-close publish, want final", last)
	}
}

// TestBroadcasterConcurrent drives publishers and subscribers in
// parallel; the race detector is the assertion.
func TestBroadcasterConcurrent(t *testing.T) {
	b := NewBroadcaster[int]()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(base + i)
			}
		}(w * 1000)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel := b.Subscribe()
			defer cancel()
			for i := 0; i < 50; i++ {
				select {
				case <-ch:
				default:
				}
			}
		}()
	}
	wg.Wait()
	b.CloseWith(-1)
}
