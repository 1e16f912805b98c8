// Package memo holds the one singleflight cache every derived artifact
// of the simulation stack goes through: characterizations, fault
// models, golden traces, hazard tables, benchmark digests and benchmark
// execution contexts are each built exactly once per key and shared.
package memo

import "sync"

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
	once sync.Once
	v    V
	err  error
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
		e = &entry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
