package artifact

import (
	"errors"
	"strconv"
	"testing"
)

// intCache stores ints as decimal text; decode accepts only values
// below limit, standing in for a kind's shape check.
func intCache(st *Store) *Cache[string, int] {
	return &Cache[string, int]{Store: st, Kind: "int", Encode: func(v int) ([]byte, error) {
		return []byte(strconv.Itoa(v)), nil
	}}
}

func decodeBelow(limit int) func([]byte) (int, bool) {
	return func(b []byte) (int, bool) {
		v, err := strconv.Atoi(string(b))
		return v, err == nil && v < limit
	}
}

// TestCacheLoadOrBuild walks one key through every branch of Get: a
// cold build is written, a fresh cache loads it, a decode that rejects
// the blob rebuilds and overwrites it, a key error and a build error are
// Get's errors and write nothing, and without a store key and decode
// never run.
func TestCacheLoadOrBuild(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := func() (string, error) { return "k", nil }
	build := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	get := func(c *Cache[string, int], limit, v int) int {
		t.Helper()
		got, err := c.Get("k", key, decodeBelow(limit), build(v))
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := c.Get("k", nil, nil, nil); again != got {
			t.Fatalf("memoized %d, first Get %d", again, got)
		}
		return got
	}
	check := func(name string, c *Cache[string, int], got, want int, built, loaded int64, stats Stats) {
		t.Helper()
		if got != want || c.Built() != built || c.Loaded() != loaded || st.Stats() != stats {
			t.Errorf("%s: value %d built %d loaded %d store %+v; want %d, %d, %d, %+v",
				name, got, c.Built(), c.Loaded(), st.Stats(), want, built, loaded, stats)
		}
	}
	cold := intCache(st)
	check("cold", cold, get(cold, 100, 7), 7, 1, 0, Stats{Misses: 1, Puts: 1})
	warm := intCache(st)
	check("warm", warm, get(warm, 100, 8), 7, 0, 1, Stats{Hits: 1, Misses: 1, Puts: 1})
	misfit := intCache(st)
	check("misfit", misfit, get(misfit, 5, 3), 3, 1, 0, Stats{Hits: 2, Misses: 1, Puts: 2})
	if v, ok := intCache(st).Load("k", decodeBelow(100)); !ok || v != 3 {
		t.Errorf("rebuilt value not written over the misfit: %d, %v", v, ok)
	}

	boom := errors.New("boom")
	failed := intCache(st)
	if _, err := failed.Get("bad-key", func() (string, error) { return "", boom }, nil, build(1)); err != boom {
		t.Errorf("key error: got %v", err)
	}
	if _, err := failed.Get("bad-build", func() (string, error) { return "b", nil }, decodeBelow(100),
		func() (int, error) { return 0, boom }); err != boom {
		t.Errorf("build error: got %v", err)
	}
	if _, err := failed.Get("bad-build", nil, nil, build(1)); err != boom {
		t.Errorf("build error not cached: got %v", err)
	}
	check("errors", failed, 0, 0, 0, 0, Stats{Hits: 3, Misses: 2, Puts: 2})

	memOnly := intCache(nil)
	if v, err := memOnly.Get("k", nil, nil, build(9)); err != nil || v != 9 || memOnly.Built() != 1 {
		t.Errorf("memory-only Get: %d, %v, built %d", v, err, memOnly.Built())
	}
	memOnly.Save("k", 1)
	if _, ok := memOnly.Load("k", nil); ok {
		t.Error("memory-only Load hit")
	}
}

// TestCacheLoadOrBuildKeepsNothing: LoadOrBuild loads or builds and
// saves like Get and counts alike, but keeps no value: a second call
// loads (or, without a store, builds) again, and Held sees only what a
// successful Get built.
func TestCacheLoadOrBuildKeepsNothing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := func() (string, error) { return "k", nil }
	build := func() (int, error) { return 7, nil }
	for _, store := range []*Store{nil, st} {
		c := intCache(store)
		for range 2 {
			if v, err := c.LoadOrBuild(key, decodeBelow(100), build); err != nil || v != 7 {
				t.Fatalf("store %v: LoadOrBuild = %d, %v", store != nil, v, err)
			}
		}
		built, loaded := int64(2), int64(0)
		if store != nil {
			built, loaded = 1, 1
		}
		if c.Built() != built || c.Loaded() != loaded {
			t.Errorf("store %v: built %d loaded %d, want %d and %d", store != nil, c.Built(), c.Loaded(), built, loaded)
		}
		if _, ok := c.Held("k"); ok {
			t.Errorf("store %v: Held reported a value only LoadOrBuild made", store != nil)
		}
		c.Get("k", key, decodeBelow(100), build)
		if v, ok := c.Held("k"); !ok || v != 7 {
			t.Errorf("store %v: Held after Get = %d, %v", store != nil, v, ok)
		}
		c.Get("bad", key, decodeBelow(0), func() (int, error) { return 0, errors.New("boom") })
		if _, ok := c.Held("bad"); ok {
			t.Errorf("store %v: Held reported a failed Get", store != nil)
		}
	}
	// One cold write, then hits: the second LoadOrBuild, the Get and the
	// failed Get, whose decode rejects the blob.
	if s := st.Stats(); s != (Stats{Hits: 3, Misses: 1, Puts: 1}) {
		t.Errorf("store traffic %+v", s)
	}
}
