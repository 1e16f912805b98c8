package cpu

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
)

func TestTraceCodecRoundTrip(t *testing.T) {
	_, tr, _ := goldenTrace(t, 64)
	blob, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:len(traceMagic)]) != traceMagic {
		t.Fatalf("encoded trace lacks the magic prefix")
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip not bit-exact:\ngot  %+v\nwant %+v", got, tr)
	}
}

func TestTraceCodecShrinks(t *testing.T) {
	_, tr, _ := goldenTrace(t, 64)
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(tr); err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob)*2 > g.Len() {
		t.Fatalf("delta blob %d bytes, gob %d bytes — want at least 2x smaller", len(blob), g.Len())
	}
	t.Logf("delta %d bytes vs gob %d bytes (%.1fx)", len(blob), g.Len(), float64(g.Len())/float64(len(blob)))
}

func TestTraceCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeTrace([]byte("not a trace")); err == nil {
		t.Fatalf("decoded a non-trace payload")
	}
	_, tr, _ := goldenTrace(t, 64)
	blob, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error, never panic or return a partial trace.
	for _, n := range []int{len(traceMagic), len(traceMagic) + 3, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeTrace(blob[:n]); err == nil {
			t.Fatalf("decoded a trace truncated to %d bytes", n)
		}
	}
	// A gob payload must be rejected as not delta-encoded.
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(g.Bytes()); err == nil {
		t.Fatalf("gob payload decoded as a delta-encoded trace")
	}
}

func TestTraceCodecEmptyTrace(t *testing.T) {
	tr := &Trace{CheckpointEvery: 4096, Status: StatusExited}
	blob, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("empty-trace round trip: got %+v want %+v", got, tr)
	}
}

// deflated frames body behind the current magic as stored DEFLATE
// blocks (RFC 1951 §3.2.4), so a hand-built body reaches the body
// parser without a compressor per fuzz input.
func deflated(body []byte) []byte {
	out := []byte(traceMagic)
	for {
		n, final := len(body), byte(1)
		if n > 0xffff {
			n, final = 0xffff, 0
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out = append(out, body[:n]...)
		if body = body[n:]; final == 1 {
			return out
		}
	}
}

// TestTraceDecodeIsTotal feeds DecodeTrace the payloads a total decoder
// must refuse without allocating for, or handing downstream, what the
// body cannot back: header counts no body could hold, events whose op
// the hazard fold cannot index, and checkpoints whose event or store
// index runs backwards or past its log.
func TestTraceDecodeIsTotal(t *testing.T) {
	header := func(nEvents, nStores, nCkpts uint64) []byte {
		b := make([]byte, 5, 64) // CheckpointEvery .. Retired, all zero
		b = append(b, byte(StatusExited))
		for _, n := range []uint64{nEvents, nStores, nCkpts} {
			b = binary.AppendUvarint(b, n)
		}
		return b
	}
	_, tr, _ := goldenTrace(t, 64)
	if len(tr.Checkpoints) < 3 {
		t.Fatalf("trace kernel took %d checkpoints, want at least 3", len(tr.Checkpoints))
	}
	mutated := func(edit func(*Trace)) []byte {
		c := *tr
		c.Events = append([]TraceEvent(nil), tr.Events...)
		c.Checkpoints = append([]Checkpoint(nil), tr.Checkpoints...)
		edit(&c)
		blob, err := EncodeTrace(&c)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cases := map[string][]byte{
		"2^30 events, empty body":   deflated(header(1<<30, 0, 0)),
		"2^62 of each, empty body":  deflated(header(1<<62, 1<<62, 1<<62)),
		"events past a short body":  deflated(append(header(4, 0, 0), 0, 0, 0)),
		"op past the op space":      mutated(func(c *Trace) { c.Events[3].Op = isa.Op(isa.NumOps) }),
		"non-ALU op":                mutated(func(c *Trace) { c.Events[0].Op = isa.OpJ }),
		"event index past the log":  mutated(func(c *Trace) { c.Checkpoints[2].EventIndex = len(c.Events) + 1 }),
		"event index runs backward": mutated(func(c *Trace) { c.Checkpoints[2].EventIndex = c.Checkpoints[1].EventIndex - 1 }),
		"store index past the log":  mutated(func(c *Trace) { c.Checkpoints[2].StoreIndex = len(c.Stores) + 1 }),
	}
	for name, payload := range cases {
		if got, err := DecodeTrace(payload); err == nil {
			t.Errorf("%s: decoded %d events, %d checkpoints", name, len(got.Events), len(got.Checkpoints))
		}
	}

	// The count bound is on allocation, not only on the error: a header
	// claiming 2^20 events over an empty body is refused before the
	// 12 MiB event slice is made.
	payload := deflated(header(1<<20, 0, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTrace(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded 2^20 events from an empty body")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing 2^20 events over an empty body allocated %d bytes", n)
	}
}

// FuzzDecodeTrace feeds each input to DecodeTrace twice: as a whole
// payload, and as the inflated body behind the current magic, so the
// mutator reaches the body parser and not only DEFLATE's checks. It
// must never panic, and whatever it accepts must hold only ALU ops and
// ordered, in-range checkpoint indices, and must come back unchanged
// through EncodeTrace and DecodeTrace.
func FuzzDecodeTrace(f *testing.F) {
	_, tr, _ := goldenTrace(f, 64)
	blob, err := EncodeTrace(tr)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(blob), len(blob) - 1, len(blob) / 2, len(traceMagic) + 3, len(traceMagic)} {
		f.Add(blob[:n])
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob[len(traceMagic):])))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(tr); err != nil {
		f.Fatal(err)
	}
	f.Add(g.Bytes())
	f.Add(append([]byte("FTRD1"), blob[len(traceMagic):]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, payload := range [][]byte{b, deflated(b)} {
			got, err := DecodeTrace(payload)
			if err != nil {
				continue
			}
			for i, ev := range got.Events {
				if int(ev.Op) >= isa.NumOps || !isa.IsALU(ev.Op) {
					t.Fatalf("accepted event %d with op %d", i, ev.Op)
				}
			}
			prev := Checkpoint{}
			for i, cp := range got.Checkpoints {
				if cp.EventIndex < prev.EventIndex || cp.EventIndex > len(got.Events) ||
					cp.StoreIndex < prev.StoreIndex || cp.StoreIndex > len(got.Stores) {
					t.Fatalf("accepted checkpoint %d at event %d, store %d", i, cp.EventIndex, cp.StoreIndex)
				}
				prev = cp
			}
			again, err := EncodeTrace(got)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeTrace(again)
			if err != nil {
				t.Fatalf("re-encoded trace does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, got) {
				t.Fatalf("re-decoded trace drifted:\n got  %+v\n want %+v", back, got)
			}
		}
	})
}
