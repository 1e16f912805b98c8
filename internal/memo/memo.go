// Package memo holds the one singleflight cache every derived artifact
// of the simulation stack goes through: characterizations, violation
// grids, fault models, golden traces, hazard tables, benchmark digests
// and benchmark execution contexts are each built exactly once per key
// and shared. What a Map holds it holds for its own lifetime; a value
// that should not stay in memory (a raw DTA characterization under
// independent sampling) is built outside it, and Lookup lets such a
// build reuse one a Get already holds.
package memo

import (
	"errors"
	"sync"
)

// errPanicked is the cached error of a build that panicked: the Gets
// waiting on it fail instead of sharing a zero value.
var errPanicked = errors.New("memo: build panicked")

// Map is a per-key singleflight cache. The first Get of a key runs its
// build; concurrent Gets of the same key block on that one build and
// share its result, while Gets of other keys proceed (and build) in
// parallel — the map lock is never held across a build. The value and
// the error are cached alike, so a failed build is not retried: every
// user builds deterministically, so a retry would fail the same way.
// The zero Map is ready to use and must not be copied after first use.
type Map[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
}

type entry[V any] struct {
	ready chan struct{} // closed once v and err are final
	v     V
	err   error
}

// Get returns the cached result for k, running build to produce it if
// k has not been requested before.
func (m *Map[K, V]) Get(k K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if !ok {
		if m.entries == nil {
			m.entries = map[K]*entry[V]{}
		}
		e = &entry[V]{ready: make(chan struct{})}
		m.entries[k] = e
	}
	m.mu.Unlock()
	if !ok {
		e.err = errPanicked // until build returns
		defer close(e.ready)
		e.v, e.err = build()
		return e.v, e.err
	}
	<-e.ready
	return e.v, e.err
}

// Lookup returns k's value if a Get of k built it without error. A
// build still in flight is waited for, never reported half-done; a key
// no Get has asked for, or whose build failed, reports false. Lookup
// never builds and never adds a key.
func (m *Map[K, V]) Lookup(k K) (v V, ok bool) {
	m.mu.Lock()
	e, held := m.entries[k]
	m.mu.Unlock()
	if !held {
		return v, false
	}
	<-e.ready
	if e.err != nil {
		return v, false
	}
	return e.v, true
}
