package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestLeaseRejectsBadRequests pins the lease handler's 400 answers: a
// lease with no cells, with an index outside the grid or negative, with
// an index listed twice, or with a field the protocol does not know is
// refused with a JSON error before any event stream opens.
func TestLeaseRejectsBadRequests(t *testing.T) {
	spec, err := gridSpec(19).Canonicalize() // 8 cells
	if err != nil {
		t.Fatal(err)
	}
	lease := func(cells ...int) string {
		b, err := json.Marshal(LeaseRequest{
			LeaseID: "L1", Fingerprint: spec.Fingerprint(system().Fingerprint()), Spec: spec, Cells: cells,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	h := (&Worker{System: system()}).Handler()
	for _, tc := range []struct{ name, body string }{
		{"empty", lease()},
		{"out of range", lease(0, 8)},
		{"negative", lease(-1, 3)},
		{"duplicate", lease(2, 5, 2)},
		{"unknown field", strings.Replace(lease(0), "{", `{"shard":3,`, 1)},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/lease", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q: an event stream was opened", tc.name, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", tc.name, rec.Body.String())
		}
	}
}
