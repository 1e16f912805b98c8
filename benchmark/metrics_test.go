package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int // tenths of a percent; 0 = no tail percentile
	}{
		{0, 0}, {39, 0}, {40, 750}, {99, 750}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999}, {1 << 20, 999},
	} {
		pm, ok := tailPercentile(tc.n)
		if !ok {
			pm = 0
		}
		if pm != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, pm, tc.want)
		}
		if ok && tc.n*(1000-pm) < minBeyond*1000 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", tc.n, float64(pm)/10, minBeyond)
		}
	}
}

func TestSummarizeReportsTailOnlyWithEnoughSamples(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 100 || s.P50ms != 50.5 || s.TailPct != 90 || s.TailMs != 90 {
		t.Errorf("summarize(1..100 ms) = %+v, want n=100 p50=50.5 p90=90", s)
	}
	if s := summarize(ds[:39]); s.TailPct != 0 || s.TailMs != 0 {
		t.Errorf("39 samples reported a tail: %+v", s)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads() {
		seen[w.name] = true
	}
	var setupBound, maxBound float64
	for i, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if seen[m.Name] {
				t.Errorf("name %q used twice", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if i == 0 {
				if m.Bound <= 0 || m.Bound > 0.25 {
					t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
				}
				maxBound = max(maxBound, m.Bound)
				if m.Name == "setup_s" {
					setupBound = m.Bound
				}
			} else if m.Moves == "" {
				t.Errorf("%s: no end-to-end metric it should move", m.Name)
			}
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json, which the
// runner of the benchmark reads, in step with the metrics and workloads
// this program reports.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !sameSet(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, declared %q: %q", i, f.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e := f.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, declared %+v", i, e, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		e := f.PerLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, declared %+v", i, e, m)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}
