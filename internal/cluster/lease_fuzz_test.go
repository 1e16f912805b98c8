package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/mc"
	"repro/internal/server"
)

// FuzzLeaseStream serves arbitrary bytes as a worker's reply to POST
// /v1/worker/lease and drives one lease of cells 1 and 2 over it
// through the coordinator's stream reader. Whatever the bytes, the
// coordinator must not panic, must merge only cells of that lease whose
// key matches its plan, and must end the lease with one of its typed
// errors or, once both cells are in, with "done" (a nil error);
// retiring the lease must then leave each of its cells merged or
// requeued.
//
//	go test -run '^$' -fuzz '^FuzzLeaseStream$' -fuzztime 30s ./internal/cluster/
func FuzzLeaseStream(f *testing.F) {
	spec, err := server.JobSpec{Benches: []string{"median"}, Models: []string{"B"},
		Freqs: []float64{690, 705, 720, 735}, Trials: 2}.Canonicalize()
	if err != nil {
		f.Fatal(err)
	}
	grid, err := spec.Grid(system(), nil, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := grid.PlanCells()
	if err != nil {
		f.Fatal(err)
	}
	leased := []int{1, 2}

	// The stub worker answers in process, through the coordinator's
	// real client, without sockets or goroutines: the coverage of one
	// input is then the same on every run, which the fuzzing engine
	// relies on.
	var body []byte
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
	})
	cc := testClient()
	cc.HTTP = &http.Client{Transport: handlerTransport{stub}}

	line := func(ev LeaseEvent) string {
		b, _ := json.Marshal(ev)
		return string(b) + "\n"
	}
	cell := func(i int, key string) LeaseEvent {
		return LeaseEvent{Event: "cell", Index: i, Key: key, Point: &mc.Point{FreqMHz: 700, Trials: 2}}
	}
	done := line(LeaseEvent{Event: "done"})
	for _, s := range []string{
		line(LeaseEvent{Event: "progress", DoneTrials: 1}) + line(cell(1, plan[1].Key)) + line(cell(2, plan[2].Key)) + done,
		line(cell(1, plan[1].Key)) + line(cell(1, plan[1].Key)) + done, // duplicate, and done with cell 2 unreported
		line(cell(0, plan[0].Key)) + done,                                  // a cell outside the lease
		line(cell(2, plan[1].Key)) + done,                                  // key mismatch
		line(cell(7, "k")) + done,                                          // index past the plan
		line(LeaseEvent{Event: "cell", Index: 1, Key: plan[1].Key}) + done, // no point
		line(LeaseEvent{Event: "error", Error: "boom"}),
		`{"event":"bogus"}` + "\n",
		line(cell(1, plan[1].Key)),      // stream ends before done
		line(cell(1, plan[1].Key))[:30], // cut mid-line
		`{"event":"progress","done_trials":-5}` + "\n" + done,
		"",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		body = data
		// A coordinator per input, so lease IDs, which count up per
		// coordinator, are the same on every run of the input too.
		c, err := New(system(), nil, []string{"http://worker"}, Config{Client: cc})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		j := &job{
			spec: spec, plan: plan, cancel: cancel,
			onProgress: func(mc.Progress) {},
			inflight:   map[string]*lease{},
			done:       make([]bool, len(plan)),
			results:    make([]mc.CellResult, len(plan)),
			queue:      []int{0, 3},
		}
		j.remaining = len(plan)
		j.cond = sync.NewCond(&j.mu)
		l := c.openLeaseLocked(j, 0, slices.Clone(leased), 0)

		err = c.runLease(ctx, j, 0, l)
		var se streamError
		var ee execError
		var pe protocolError
		if err != nil && !errors.As(err, &se) && !errors.As(err, &ee) && !errors.As(err, &pe) {
			t.Fatalf("lease ended with an untyped error: %v", err)
		}

		// Replay the stream: the cells it may have merged, and whether
		// it said done.
		valid := map[int]bool{}
		sawDone := false
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var ev LeaseEvent
			if dec.Decode(&ev) != nil || ev.Event == "done" {
				sawDone = ev.Event == "done"
				break
			}
			if ev.Event == "cell" && slices.Contains(leased, ev.Index) && ev.Key == plan[ev.Index].Key && ev.Point != nil {
				valid[ev.Index] = true
			}
		}
		if err == nil && !(sawDone && j.done[1] && j.done[2]) {
			t.Fatalf("lease succeeded without a done event after both its cells")
		}
		merged := 0
		for i, d := range j.done {
			if d {
				merged++
				if !valid[i] {
					t.Fatalf("merged cell %d, which no in-lease event with the plan's key reported (err %v)", i, err)
				}
			}
		}
		if j.remaining != len(plan)-merged {
			t.Fatalf("remaining %d after %d of %d cells merged", j.remaining, merged, len(plan))
		}

		c.finishLease(j, l, err)
		for _, i := range leased {
			if !j.done[i] && !slices.Contains(j.queue, i) {
				t.Fatalf("cell %d neither merged nor requeued", i)
			}
		}
	})
}

// handlerTransport serves HTTP requests with a handler, in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}
