// Observer fan-out: a Broadcaster multiplexes one stream of progress
// values out to any number of late-joining subscribers, so a single
// engine callback can feed a terminal reporter and several HTTP
// progress streams at once instead of one hard-wired stderr writer.

package progress

import "sync"

// Broadcaster fans values published by one producer out to any number
// of subscribers with coalescing semantics: every subscriber channel
// holds at most the most recent value, and a slow subscriber observes a
// skipped-ahead sequence rather than ever blocking the producer. That
// makes Publish safe to call from hot paths that hold scheduling locks
// (the mc engine delivers progress snapshots under its own mutex).
//
// A new subscriber immediately receives the most recently published
// value, if any, so a progress display attached mid-run starts from the
// current state instead of waiting for the next tick. CloseWith closes
// every subscriber channel; the last published value remains readable
// through Last.
type Broadcaster[T any] struct {
	mu     sync.Mutex
	subs   map[chan T]struct{}
	last   T
	seeded bool
	closed bool
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster[T any]() *Broadcaster[T] {
	return &Broadcaster[T]{subs: make(map[chan T]struct{})}
}

// Publish delivers v to every subscriber, replacing any value a
// subscriber has not yet consumed. It never blocks. Publishing on a
// closed broadcaster is a no-op.
func (b *Broadcaster[T]) Publish(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.publishLocked(v)
}

// publishLocked is Publish for callers that hold mu.
func (b *Broadcaster[T]) publishLocked(v T) {
	if b.closed {
		return
	}
	b.last, b.seeded = v, true
	for ch := range b.subs {
		select {
		case ch <- v:
		default:
			// Channel full: drop the stale value, then deliver the new
			// one. Both operations are non-blocking; the subscriber owns
			// the only other receive end, so the second send can only
			// fail if the subscriber raced a value in between — in which
			// case it already has something newer than the stale one.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- v:
			default:
			}
		}
	}
}

// Subscribe registers a new observer. The returned channel has capacity
// one and carries the latest value at each receive; it is closed when
// the broadcaster closes. Subscribing to an already-closed broadcaster
// still delivers the final value before the close, so an observer that
// races the producer's CloseWith never misses the terminal snapshot.
// The cancel function unregisters the observer (idempotent, safe after
// CloseWith).
func (b *Broadcaster[T]) Subscribe() (<-chan T, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan T, 1)
	if b.closed {
		ch <- b.last // CloseWith published it
		close(ch)
		return ch, func() {}
	}
	if b.seeded {
		ch <- b.last
	}
	b.subs[ch] = struct{}{}
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
		}
	}
	return ch, cancel
}

// CloseWith publishes v and closes every subscriber channel in one
// critical section, so no subscriber can observe the close without
// having been offered the final value first. It is idempotent: after
// the first call, CloseWith and Publish are no-ops, and v remains
// readable through Last.
func (b *Broadcaster[T]) CloseWith(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.publishLocked(v)
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}

// Last returns the most recently published value and whether one was
// ever published. It remains valid after CloseWith, so late status queries
// can read the terminal snapshot.
func (b *Broadcaster[T]) Last() (T, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last, b.seeded
}
