package progress

import (
	"sync"
	"testing"
)

func TestFaninAggregates(t *testing.T) {
	var got []Counts
	f := NewFanin(func(c Counts) { got = append(got, c) })

	f.Fold(Counts{Total: 100, TotalPoints: 10}) // up-front plan totals
	f.Update("a", Counts{Done: 5, DonePoints: 1})
	f.Update("b", Counts{Done: 3})
	f.Update("a", Counts{Done: 8, DonePoints: 2})

	want := Counts{Done: 11, Total: 100, DonePoints: 2, TotalPoints: 10}
	if len(got) != 4 || got[3] != want {
		t.Fatalf("emitted %+v, want 4 emissions ending in %+v", got, want)
	}

	// Close folds the final contribution atomically: the aggregate never
	// dips below the pre-close value.
	f.Close("a", Counts{Done: 10, DonePoints: 3})
	want = Counts{Done: 13, Total: 100, DonePoints: 3, TotalPoints: 10}
	if s := got[len(got)-1]; s != want {
		t.Fatalf("after close: %+v, want %+v", s, want)
	}
}

// Emissions are serialized and each reflects a consistent aggregate; a
// racing mix of sources must never emit a snapshot that goes backwards
// in the settled base.
func TestFaninConcurrent(t *testing.T) {
	var mu sync.Mutex
	maxDone := 0
	var last Counts
	f := NewFanin(func(c Counts) {
		mu.Lock()
		if c.Done > maxDone {
			maxDone = c.Done
		}
		last = c
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := string(rune('a' + w))
			for i := 1; i <= 50; i++ {
				f.Update(src, Counts{Done: i})
			}
			f.Close(src, Counts{Done: 50})
		}(w)
	}
	wg.Wait()
	// Emissions run in mutation order, so the last one is the final
	// aggregate.
	want := Counts{Done: 8 * 50}
	if last != want {
		t.Fatalf("final aggregate %+v, want %+v", last, want)
	}
	if maxDone != 400 {
		t.Fatalf("max emitted Done = %d, want 400", maxDone)
	}
}
