package cpu

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
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
