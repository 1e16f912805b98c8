package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/report"
	"repro/internal/server"
)

// poolWorkers pins the mc worker pool, and clients the number of
// concurrent fisimd clients and cluster workers: the benchmark is sized
// for a 2-core machine and measured on one.
const (
	poolWorkers = 2
	clients     = 2
)

// digestSeed is the seed whose output digests are committed in
// digests.json.
const digestSeed = 1

// digests maps workload name to the SHA-256 over the CSVs of its leading
// operations (workload.digestOps of them) in the untraced run at
// digestSeed.
//
//go:embed digests.json
var digestsJSON []byte

// config parameterizes one workload run in a child process.
type config struct {
	seed    int64
	seconds float64 // measure until this much wall time has passed
	trace   bool
	setups  int    // independent set-ups timed for setup_s
	dta     int    // DTA characterization cycles
	dir     string // scratch directory, inside the checkout
}

// defaultDTACycles is the production characterization length.
func defaultDTACycles() int { return core.DefaultConfig().DTA.Cycles }

// core returns the substrate configuration every System of the run uses.
func (c config) core() core.Config {
	cfg := core.DefaultConfig()
	cfg.DTA.Cycles = c.dta
	return cfg
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// spec is the grid the workload's operations are built from; the
	// probe phase calls each layer on it.
	spec server.JobSpec
	// digestOps is how many leading operations the default-seed digest
	// covers; every run completes at least that many.
	digestOps int
	setup     func(c config, spec server.JobSpec) (instance, error)
}

// instance is a set-up workload: run measures one phase, check verifies
// that phase's outputs untimed afterwards, close releases everything.
type instance interface {
	run(ph *phase) error
	check(ph *phase)
	close()
}

// layerReporter is implemented by instances whose traced phase drives a
// layer that the probe phase would otherwise measure (fisimd's server,
// the cluster's coordinator and workers).
type layerReporter interface {
	layers(ph *phase, res *childResult)
}

// op is one user-visible operation: a sweep command, a grid, a job.
type op struct {
	index  int
	kind   string
	dur    time.Duration
	trials int    // Monte-Carlo trials simulated for it (cache hits excluded)
	csv    []byte // the result as the user receives it
	cells  []mc.CellResult
	err    error // execution error, or the output check that failed
	// queue is the server-side wait from Created to Started of an
	// executed fisimd job; queued says whether it was measured.
	queue  time.Duration
	queued bool
}

// phase is one timed pass of a workload.
type phase struct {
	tag     string // names scratch state, distinct per phase
	seed    int64
	seconds float64
	tr      *tracer // nil when untraced
	dir     string

	start time.Time
	wall  time.Duration

	mu  sync.Mutex
	ops []*op
}

// more reports whether the phase should start another repetition.
func (ph *phase) more() bool { return time.Since(ph.start).Seconds() < ph.seconds }

func (ph *phase) record(o *op) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, o)
	ph.mu.Unlock()
}

// sorted returns the operations in index order.
func (ph *phase) sorted() []*op {
	ph.mu.Lock()
	out := append([]*op(nil), ph.ops...)
	ph.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// derive mixes a seed with indices into a positive sub-seed (SplitMix64
// finalizer), so every repetition, job and phase draws its own inputs.
func derive(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z = splitmix(z ^ splitmix(uint64(p)+0x9e3779b97f4a7c15))
	}
	v := int64(splitmix(z) >> 1)
	if v == 0 {
		v = 1
	}
	return v
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// withSeed returns the canonical form of spec under a new seed.
func withSeed(spec server.JobSpec, seed int64) (server.JobSpec, error) {
	spec.Seed = seed
	return spec.Canonicalize()
}

// resultDoc is the report document of grid results.
func resultDoc(tool string, seed int64, cells []mc.CellResult) *report.Document {
	return &report.Document{
		Meta:   report.Meta{Tool: tool, Seed: seed, Cells: len(cells)},
		Series: report.FromCells(cells),
	}
}

// csvOf renders grid results as cmd/sweep -format csv does.
func csvOf(tool string, seed int64, cells []mc.CellResult) ([]byte, error) {
	var buf bytes.Buffer
	err := report.WriteCSV(&buf, resultDoc(tool, seed, cells))
	return buf.Bytes(), err
}

// csvRows drops the leading metadata comment line, which names the
// producing tool.
func csvRows(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// inProcessMatches runs spec on an in-process mc grid over sys and
// compares its CSV rows with got's.
func inProcessMatches(sys *core.System, spec server.JobSpec, got []byte) error {
	grid, err := spec.Grid(sys, nil, poolWorkers, nil)
	if err != nil {
		return err
	}
	cells, err := grid.Run()
	if err != nil {
		return fmt.Errorf("in-process grid: %w", err)
	}
	want, err := csvOf("sweep", spec.Seed, cells)
	if err != nil {
		return err
	}
	if !bytes.Equal(csvRows(got), csvRows(want)) {
		return errors.New("result differs from the in-process grid")
	}
	return nil
}

// computedTrials counts the trials of cells that were simulated, not
// served from the artifact store.
func computedTrials(cells []mc.CellResult) int {
	n := 0
	for _, c := range cells {
		if !c.Cached {
			n += c.Point.Trials
		}
	}
	return n
}

// warmSystem fills sys's model, golden-trace and hazard caches for every
// cell of spec, so that timed operations pay only for trials.
func warmSystem(sys *core.System, spec server.JobSpec) error {
	g, err := spec.Grid(sys, nil, poolWorkers, nil)
	if err != nil {
		return err
	}
	for _, c := range g.Cells() {
		if _, err := sys.Model(c.Model); err != nil {
			return err
		}
		if c.Bench.PerTrialInputs {
			continue
		}
		if _, err := sys.Hazard(c.Bench, spec.InputSeed, c.Model); err != nil {
			return err
		}
	}
	return nil
}

// firstProgress returns an mc progress callback that records the first
// callback of a traced grid run as an event; nil when untraced.
func firstProgress(tr *tracer, trace, parent int64) func(mc.Progress) {
	if tr == nil {
		return nil
	}
	var once sync.Once
	return func(mc.Progress) { once.Do(func() { tr.event("mc.first_progress", trace, parent) }) }
}

// childResult is what one workload run reports to the parent process.
type childResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Kinds     map[string]timing  `json:"kinds,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Expected  string             `json:"expected_digest,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	SpanStats []spanSummary      `json:"span_summary,omitempty"`
}

func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// tally counts a phase's operations and failures into the result.
func (r *childResult) tally(ph *phase) {
	for _, o := range ph.sorted() {
		r.Attempted++
		if o.err != nil {
			r.fail(fmt.Errorf("%s op %d (%s): %w", ph.tag, o.index, o.kind, o.err))
		}
	}
}

// checkDigest hashes the CSVs of the phase's first n operations and, at
// the default seed, compares the hash with the committed one — an
// attempted check that fails on mismatch.
func (r *childResult) checkDigest(ph *phase, n int, want string) {
	ops := ph.sorted()
	if len(ops) < n {
		if ph.seed == digestSeed {
			r.Attempted++
			r.fail(fmt.Errorf("digest: only %d of %d operations completed", len(ops), n))
		}
		return
	}
	h := sha256.New()
	for _, o := range ops[:n] {
		h.Write(o.csv)
	}
	r.Digest = hex.EncodeToString(h.Sum(nil))
	if ph.seed != digestSeed {
		return
	}
	r.Expected = want
	r.Attempted++
	if r.Digest != want {
		r.fail(fmt.Errorf("digest: outputs hash to %s, want %s", r.Digest, want))
	}
}

// expectedDigest reads the committed digest of a workload.
func expectedDigest(name string) (string, error) {
	var d struct {
		Seed      int64             `json:"seed"`
		Workloads map[string]string `json:"workloads"`
	}
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	if d.Seed != digestSeed {
		return "", fmt.Errorf("digests.json: seed %d, want %d", d.Seed, digestSeed)
	}
	return d.Workloads[name], nil
}

// runWorkload sets the workload up, runs its timed phase (and, traced,
// a second traced phase and the probe phase), checks every output, and
// reports its metrics. A metric without a finite value is dropped and
// counted as a failure.
func runWorkload(w workload, c config) childResult {
	res := measure(w, c)
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Metrics, name)
			res.Attempted++
			res.fail(fmt.Errorf("metric %s: no finite value", name))
		}
	}
	return res
}

func measure(w workload, c config) childResult {
	res := childResult{Workload: w.name, Metrics: map[string]float64{}, Samples: map[string]int{}}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		res.Attempted++
		res.fail(err)
		return res
	}
	setups := c.setups
	if c.trace {
		setups = 1 // set-up time is an end-to-end metric of the untraced run only
	}
	var inst instance
	var setupDur []float64
	for k := 0; k < setups; k++ {
		sc := c
		sc.dir = filepath.Join(c.dir, fmt.Sprintf("setup-%d", k))
		t0 := time.Now()
		in, err := w.setup(sc, w.spec)
		if err != nil {
			res.Attempted++
			res.fail(fmt.Errorf("setup: %w", err))
			return res
		}
		setupDur = append(setupDur, time.Since(t0).Seconds())
		if k < setups-1 {
			in.close()
		} else {
			inst = in
		}
		// Each set-up, and then the timed phase, starts from a collected
		// heap, so one set-up's garbage neither slows the next nor
		// inflates the peak RSS depending on when the collector ran.
		runtime.GC()
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	plain := &phase{tag: "plain", seed: c.seed, seconds: c.seconds, dir: c.dir}
	runPhase(inst, plain, &res)
	rssMB := maxRSSMB()
	var traced *phase
	if c.trace {
		traced = &phase{tag: "traced", seed: derive(c.seed, 0x7ace), seconds: c.seconds, tr: newTracer(), dir: c.dir}
		runPhase(inst, traced, &res)
	}

	inst.check(plain)
	res.tally(plain)
	want, err := expectedDigest(w.name)
	if err != nil {
		res.Attempted++
		res.fail(err)
	}
	res.checkDigest(plain, w.digestOps, want)

	plainOps := plain.sorted()
	if !c.trace {
		res.Kinds = kindTimings(plainOps)
		res.put("setup_s", median(setupDur), len(setupDur))
		res.put("op_p50_ms", opP50(plainOps), len(plainOps))
		res.put("ops_per_s", float64(len(plainOps))/plain.wall.Seconds(), len(plainOps))
		trials := 0
		for _, o := range plainOps {
			trials += o.trials
		}
		res.put("trials_per_s", float64(trials)/plain.wall.Seconds(), len(plainOps))
		res.put("max_rss_mb", rssMB, 1)
		return res
	}

	inst.check(traced)
	res.tally(traced)
	tracedOps := traced.sorted()
	res.Kinds = kindTimings(tracedOps)
	res.Spans = traced.tr.snapshot()
	res.SpanStats = summarizeSpans(res.Spans)
	res.put("trace_overhead_ratio", opP50(tracedOps)/opP50(plainOps), len(tracedOps))
	if lr, ok := inst.(layerReporter); ok {
		lr.layers(traced, &res)
	}
	inst.close()
	inst = nil
	if err := probe(c, w.spec, &res); err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("probe: %w", err))
	}
	return res
}

// runPhase times one phase of the instance.
func runPhase(inst instance, ph *phase, res *childResult) {
	ph.start = time.Now()
	err := inst.run(ph)
	ph.wall = time.Since(ph.start)
	if err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("%s run: %w", ph.tag, err))
	}
}

func (r *childResult) put(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Samples[name] = n
}

// opP50 is the median latency in ms of the successful operations.
func opP50(ops []*op) float64 {
	var xs []float64
	for _, o := range ops {
		if o.err == nil {
			xs = append(xs, ms(o.dur))
		}
	}
	return median(xs)
}

// kindTimings summarizes operation latencies per kind.
func kindTimings(ops []*op) map[string]timing {
	by := map[string][]time.Duration{}
	for _, o := range ops {
		if o.err == nil {
			by[o.kind] = append(by[o.kind], o.dur)
		}
	}
	out := map[string]timing{}
	for k, ds := range by {
		out[k] = summarize(ds)
	}
	return out
}

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
