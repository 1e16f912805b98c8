// Command benchmark is the repository's performance benchmark: it runs
// each workload in a child process of its own (so peak memory and GC
// state are per workload), prints every end-to-end metric — or, with
// -trace 1, every per-layer metric — as
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// checks every output, and ends with one JSON line holding correct,
// attempted, failed and the metrics. Run it from the repository root
// through benchmark/run.sh, which builds it:
//
//	bash benchmark/run.sh                                  # all workloads
//	bash benchmark/run.sh -workload trials-faulting -seed 3 -seconds 10
//	bash benchmark/run.sh -trace 1 -spans .bench_build/spans.json
//	bash benchmark/run.sh -runs 2 -o benchmark/baseline.json
//
// See benchmark/README.md for the workloads, metrics and layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setups is how many times each workload is set up in an untraced run;
// setup_s is the median.
const setups = 3

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

// workloads lists the benchmark's workloads in their default order.
func workloads() []workload {
	return []workload{sweepSession(), trialsFaulting(), fisimdInteractive(), cluster2w()}
}

func main() {
	names := flag.String("workload", "all", "workload name(s), comma-separated, or all")
	seed := flag.Int64("seed", digestSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "timed seconds per workload (every run completes at least one repetition)")
	trace := flag.Int("trace", 0, "1 runs each workload traced and reports the per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans.json"), "with -trace 1, write the recorded spans here")
	runs := flag.Int("runs", 1, "run the whole set this many times, alternating workload order, and compare each metric across runs")
	out := flag.String("o", "", "also write every result as JSON to this file")
	child := flag.String("child", "", "internal: run this one workload in-process and print its result as JSON")
	dir := flag.String("dir", "", "internal: the child's scratch directory")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("-trace: want 0 or 1, got %d", *trace)
	}
	if *child != "" {
		os.Exit(childMain(*child, config{
			seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups, dta: defaultDTACycles(), dir: *dir,
		}))
	}
	sel, err := selectWorkloads(*names)
	if err != nil {
		fatalf("%v", err)
	}
	if *runs < 1 {
		fatalf("-runs: want at least 1")
	}
	os.Exit(parentMain(sel, *seed, *seconds, *trace == 1, *runs, *spans, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(names string) ([]workload, error) {
	all := workloads()
	if names == "all" {
		return all, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == strings.TrimSpace(n) {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// childMain runs one workload in this process and writes its result as
// JSON on stdout.
func childMain(name string, c config) int {
	sel, err := selectWorkloads(name)
	if err != nil || len(sel) != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: child: unknown workload %q\n", name)
		return 2
	}
	res := runWorkload(sel[0], c)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: child: %v\n", err)
		return 1
	}
	return 0
}

// run is one pass over the selected workloads.
type run struct {
	Order   []string      `json:"order"`
	Results []childResult `json:"results"`
}

func parentMain(sel []workload, seed int64, seconds float64, trace bool, runs int, spansPath, outPath string) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(work)

	var all []run
	for r := 0; r < runs; r++ {
		order := append([]workload(nil), sel...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		var pass run
		for _, w := range order {
			res := runChild(w, seed, seconds, trace, filepath.Join(work, fmt.Sprintf("%s-%d", w.name, r)))
			printResult(os.Stdout, res, trace)
			pass.Order = append(pass.Order, w.name)
			pass.Results = append(pass.Results, res)
		}
		all = append(all, pass)
	}

	ok := true
	if runs > 1 {
		ok = compareRuns(os.Stdout, sel, all)
	}
	if trace {
		if err := writeSpans(spansPath, all); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: spans: %v\n", err)
			ok = false
		}
	}
	if outPath != "" {
		if err := writeResults(outPath, seed, seconds, trace, all); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: results: %v\n", err)
			ok = false
		}
	}
	final := summaryLine(all[0].Results, trace)
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	if !final.Correct || !ok {
		return 1
	}
	return 0
}

// runChild re-executes this binary on one workload and collects its
// result; a child that fails to report counts as one failed attempt.
func runChild(w workload, seed int64, seconds float64, trace bool, dir string) childResult {
	exe, err := os.Executable()
	if err != nil {
		return failedResult(w.name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr, "-dir", dir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return failedResult(w.name, fmt.Errorf("child: %w", err))
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return failedResult(w.name, fmt.Errorf("child output: %w", err))
	}
	return res
}

func failedResult(name string, err error) childResult {
	return childResult{Workload: name, Attempted: 1, Failed: 1, Errors: []string{err.Error()},
		Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// declared returns the metrics a run reports: end-to-end untraced,
// per-layer traced.
func declared(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult writes a workload's metric lines, followed by comment
// lines with the per-kind operation latencies, the digest and errors.
func printResult(w io.Writer, res childResult, trace bool) {
	for _, m := range declared(trace) {
		v, ok := res.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(w, "%s %s missing %s\n", res.Workload, m.Name, m.Unit)
			continue
		}
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", res.Workload, m.Name, fmtValue(v), m.Unit, res.Samples[m.Name])
	}
	fmt.Fprintf(w, "%s error_ratio %s ratio n=%d\n", res.Workload, fmtValue(errorRatio(res)), res.Attempted)
	kinds := make([]string, 0, len(res.Kinds))
	for k := range res.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t := res.Kinds[k]
		tail := ""
		if t.TailPct > 0 {
			tail = fmt.Sprintf(" p%g=%s", t.TailPct, fmtValue(t.TailMs))
		}
		fmt.Fprintf(w, "# %s op.%s p50=%s%s ms n=%d\n", res.Workload, k, fmtValue(t.P50ms), tail, t.N)
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "# %s digest %s expected %s\n", res.Workload, res.Digest, orNone(res.Expected))
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# %s error: %s\n", res.Workload, e)
	}
}

func errorRatio(res childResult) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// compareRuns prints every (workload, end-to-end metric) pair's values
// across the runs, the spread between them as a share of the first, and
// the metric's bound; it reports whether every spread is within bound.
func compareRuns(w io.Writer, sel []workload, all []run) bool {
	ok := true
	for _, wl := range sel {
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range all {
				for _, res := range r.Results {
					if res.Workload == wl.name {
						vals = append(vals, res.Metrics[m.Name])
					}
				}
			}
			lo, hi := vals[0], vals[0]
			var parts []string
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
				parts = append(parts, fmtValue(v))
			}
			spread := (hi - lo) / vals[0]
			verdict := "ok"
			if !(spread <= m.Bound) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "# repeat %s %s %s spread=%.4f bound=%g %s\n",
				wl.name, m.Name, strings.Join(parts, " "), spread, m.Bound, verdict)
		}
	}
	return ok
}

// summary is the final output line.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine folds one pass into the final line. With one workload the
// metric names are the declared ones; with several they are prefixed
// "<workload>/".
func summaryLine(results []childResult, trace bool) summary {
	s := summary{Correct: true, Metrics: map[string]metricOutput{}}
	for _, res := range results {
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for _, m := range declared(trace) {
			v, ok := res.Metrics[m.Name]
			if !ok {
				s.Correct = false
				continue
			}
			key := m.Name
			if len(results) > 1 {
				key = res.Workload + "/" + m.Name
			}
			s.Metrics[key] = metricOutput{Value: v, Unit: m.Unit}
		}
	}
	if s.Failed > 0 || s.Attempted == 0 {
		s.Correct = false
	}
	return s
}

// writeSpans writes every traced workload's spans and span summary.
func writeSpans(path string, all []run) error {
	type file struct {
		Workload string        `json:"workload"`
		Run      int           `json:"run"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}
	var files []file
	for i, r := range all {
		for _, res := range r.Results {
			files = append(files, file{Workload: res.Workload, Run: i, Summary: res.SpanStats, Spans: res.Spans})
		}
	}
	return writeJSON(path, files)
}

// writeResults writes the full results with the machine they ran on.
func writeResults(path string, seed int64, seconds float64, trace bool, all []run) error {
	for _, r := range all {
		for i := range r.Results {
			r.Results[i].Spans = nil
		}
	}
	return writeJSON(path, map[string]any{
		"machine": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		},
		"seed": seed, "seconds": seconds, "trace": trace, "setups": setups,
		"dta_cycles": defaultDTACycles(), "runs": all,
		"metrics": map[string][]metric{"end_to_end": endToEnd, "per_layer": perLayer},
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
