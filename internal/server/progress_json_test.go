package server

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/mc"
)

// TestProgressJSONMatchesAPIDoc pins the progress JSON of the status
// and SSE examples in docs/API.md: a Progress embeds mc.Progress, and
// its bytes must read exactly as the documented objects.
func TestProgressJSONMatchesAPIDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}

	// The SSE example's progress event, byte for byte.
	const sse = "data: {\"state\":\"running\""
	i := bytes.Index(doc, []byte(sse))
	if i < 0 {
		t.Fatalf("docs/API.md has no %q line", sse)
	}
	want := doc[i+len("data: "):]
	want = want[:bytes.IndexByte(want, '\n')]
	got, err := json.Marshal(Progress{StateRunning, mc.Progress{DoneTrials: 9, TotalTrials: 24, DonePoints: 1, TotalPoints: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SSE progress JSON\n got: %s\nwant: %s", got, want)
	}

	// The status example's progress object, compacted from its layout.
	const key = `"progress": `
	i = bytes.Index(doc, []byte(key))
	if i < 0 {
		t.Fatalf("docs/API.md has no %q field", key)
	}
	obj := doc[i+len(key):]
	obj = obj[:bytes.IndexByte(obj, '}')+1]
	var field bytes.Buffer
	field.WriteString(`"progress":`)
	if err := json.Compact(&field, obj); err != nil {
		t.Fatalf("status example progress %s: %v", obj, err)
	}
	st := Status{ID: "j000001", State: StateDone, Cells: 3,
		Progress: &Progress{StateDone, mc.Progress{DoneTrials: 24, TotalTrials: 24, DonePoints: 3, TotalPoints: 3}}}
	got, err = json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(got, append(field.Bytes(), '}')) {
		t.Errorf("status JSON\n got: %s\nwant it to end with %s}", got, field.Bytes())
	}
}
