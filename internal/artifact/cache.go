package artifact

import (
	"sync/atomic"

	"repro/internal/memo"
)

// Cache is the one load-or-build path of an artifact kind: a
// singleflight memo.Map in front of an optional Store, counting how
// many values it built and how many it loaded. Get serves the kinds
// that are memoized per process (characterizations, violation grids,
// golden traces, hazard tables) and keeps every value it returns for
// the Cache's lifetime. LoadOrBuild is Get without the memo, for a
// value its caller drops after use (a raw characterization a violation
// grid is counted from); Held hands such a caller a value a Get already
// holds. Load and Save are the store halves on their own, for grid
// cells, which are not kept in memory.
//
// The store is an accelerator, never a correctness dependency: a
// missing, untrusted, undecodable or misfitting blob is a miss, and a
// failed write is ignored. Set Store (nil runs memory-only), Kind and
// Encode before the first call; the zero counters and memo are ready.
type Cache[K comparable, V any] struct {
	Store  *Store
	Kind   string
	Encode func(V) ([]byte, error)

	mem           memo.Map[K, V]
	built, loaded atomic.Int64
}

// Get returns the value for k. The first Get of k runs LoadOrBuild
// inside k's singleflight entry (concurrent Gets share it, other keys
// proceed in parallel, a value and an error are cached alike).
func (c *Cache[K, V]) Get(k K, key func() (string, error), decode func([]byte) (V, bool), build func() (V, error)) (V, error) {
	return c.mem.Get(k, func() (V, error) { return c.LoadOrBuild(key, decode, build) })
}

// LoadOrBuild returns a value without keeping it: with a store it
// spells the store key once, and a blob that decode accepts is the
// value; otherwise build runs and its value is saved under that key.
// It counts like Get and shares nothing with concurrent calls. A key
// error is its error; key and decode run only with a store.
func (c *Cache[K, V]) LoadOrBuild(key func() (string, error), decode func([]byte) (V, bool), build func() (V, error)) (v V, err error) {
	var sk string
	if c.Store != nil {
		if sk, err = key(); err != nil {
			return v, err
		}
		if v, ok := c.Load(sk, decode); ok {
			return v, nil
		}
	}
	if v, err = build(); err == nil {
		c.built.Add(1)
		c.Save(sk, v)
	}
	return v, err
}

// Held returns the value a Get of k built, waiting for one in flight.
// It reports false, and touches neither memory nor store, when no Get
// asked for k or its build failed.
func (c *Cache[K, V]) Held(k K) (V, bool) { return c.mem.Lookup(k) }

// Load returns the value stored under key if decode accepts its blob,
// counting it as loaded. An untrusted blob is a miss like an absent
// one. Without a store it always misses.
func (c *Cache[K, V]) Load(key string, decode func([]byte) (V, bool)) (v V, ok bool) {
	if c.Store == nil {
		return v, false
	}
	if payload, hit, _ := c.Store.Get(c.Kind, key); hit {
		if v, ok = decode(payload); ok {
			c.loaded.Add(1)
		}
	}
	return v, ok
}

// Save writes v under key, best-effort: a failed encode or write costs
// a rebuild later, never a wrong answer. Without a store it does
// nothing.
func (c *Cache[K, V]) Save(key string, v V) {
	if c.Store == nil {
		return
	}
	if payload, err := c.Encode(v); err == nil {
		_ = c.Store.Put(c.Kind, key, payload)
	}
}

// Built reports how many values Get and LoadOrBuild built (as opposed
// to serving from memory or the store).
func (c *Cache[K, V]) Built() int64 { return c.built.Load() }

// Loaded reports how many values were served from the store.
func (c *Cache[K, V]) Loaded() int64 { return c.loaded.Load() }
