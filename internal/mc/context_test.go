package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/leaktest"
)

// TestRunContextCancelAborts pins the cancellation contract: a grid run
// under an already-expiring context stops scheduling trials and returns
// the context's error instead of a result set.
func TestRunContextCancelAborts(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 400,
		Seed:   1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	grid := Grid{Spec: spec, Axes: Axes{Freqs: []float64{700, 750, 800}}}

	// Cancel from the first progress callback: the engine must observe it
	// and abort long before 3x400 trials complete.
	fired := false
	grid.Spec.Progress = func(Progress) {
		if !fired {
			fired = true
			cancel()
		}
	}
	cells, err := grid.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid: got cells=%d err=%v, want context.Canceled", len(cells), err)
	}

	// An adaptive grid cancelled mid-run must report the cancellation,
	// never pass truncated (under-sampled) points off as a completed
	// result: points whose Wilson decision would extend stay open, so
	// the engine can tell a truncated grid from a finished one.
	aspec := spec
	aspec.Trials = 0
	aspec.TrialsMin, aspec.TrialsMax = 16, 400
	// One worker: after the cancel lands, the rest of the first batch is
	// provably unscheduled, so the grid is truncated no matter how the
	// Wilson decisions would have gone.
	aspec.Workers = 1
	actx, acancel := context.WithCancel(context.Background())
	afired := false
	aspec.Progress = func(Progress) {
		if !afired {
			afired = true
			acancel()
		}
	}
	if _, err := (Grid{Spec: aspec, Axes: Axes{Freqs: []float64{700, 750, 800}}}).RunContext(actx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled adaptive grid: err=%v, want context.Canceled", err)
	}

	// A pre-cancelled context aborts before any cell is resolved.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := (Grid{Spec: spec, Axes: Axes{Freqs: []float64{700}}}).RunContext(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled grid: err=%v, want context.Canceled", err)
	}
}

func TestFreqRange(t *testing.T) {
	got := FreqRange(700, 900, 50)
	want := []float64{700, 750, 800, 850, 900}
	if len(got) != len(want) {
		t.Fatalf("FreqRange(700,900,50) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreqRange(700,900,50) = %v", got)
		}
	}
	// Float accumulation drift must not drop the endpoint.
	if pts := FreqRange(650, 651, 0.1); len(pts) != 11 || pts[len(pts)-1] < 650.9999 {
		t.Errorf("FreqRange(650,651,0.1) = %d points, last %v", len(pts), pts[len(pts)-1])
	}
	// A step below float resolution at lo must terminate, not spin.
	if pts := FreqRange(1e20, 1e20, 1); len(pts) != 1 {
		t.Errorf("sub-ulp step: %d points", len(pts))
	}
	if FreqRange(700, 800, 0) != nil {
		t.Error("zero step accepted")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{
		"": ModeAuto, "auto": ModeAuto, "first-fault": ModeAuto, "firstfault": ModeAuto,
		"scan": ModeFull, "replay": ModeFull, "full": ModeFull,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) accepted")
	}
}

// TestModeAliasesKeepPointsAndKeys pins every accepted -mode spelling to
// the trial path it selected before the aliases were folded into two
// modes: the cell key keeps that path's class (so warm stores written
// under the old spelling keep hitting), and the Point equals that
// path's, as computed by the reference oracle — per-trial first-fault
// sampling for the auto spellings, the replay scan for scan/replay,
// full execution for full. The three benchmarks cover the shared golden
// trace, per-trial inputs, and a watchdog below the golden cycle count,
// each at a mostly clean and a faulting frequency.
func TestModeAliasesKeepPointsAndKeys(t *testing.T) {
	parentPath := map[string]refKernel{
		"": refFirstFault, "auto": refFirstFault, "first-fault": refFirstFault, "firstfault": refFirstFault,
		"scan": refScan, "replay": refScan, "full": refFull,
	}
	cases := []struct {
		name     string
		bench    *bench.Benchmark
		watchdog float64
	}{
		{"fixed", bench.Median(), 0},
		{"per-trial-inputs", bench.MicroAdd32(), 0},
		{"low-watchdog", bench.Median(), 0.5},
	}
	for _, tc := range cases {
		for _, f := range []float64{700, 860} {
			refs := map[refKernel]Point{}
			for spelling, k := range parentPath {
				mode, err := ParseMode(spelling)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{
					System:         system(),
					Bench:          tc.bench,
					Model:          core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
					Mode:           mode,
					Trials:         6,
					Seed:           17,
					WatchdogFactor: tc.watchdog,
				}
				name := fmt.Sprintf("%s/%v MHz/%q", tc.name, f, spelling)
				class := "exact"
				if k == refFirstFault && !tc.bench.PerTrialInputs && spec.withDefaults().WatchdogFactor >= 1 {
					class = "firstfault"
				}
				plan, err := (Grid{Spec: spec, Axes: Axes{Freqs: []float64{f}}}).PlanCells()
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan[0].Key, "|path="+class+"|") {
					t.Errorf("%s: cell key %q lacks path class %s", name, plan[0].Key, class)
				}
				got, err := Run(spec, f)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, ok := refs[k]
				if !ok {
					if want, err = refRun(spec, k, f); err != nil {
						t.Fatalf("%s: reference %v: %v", name, k, err)
					}
					refs[k] = want
				}
				if got != want {
					t.Errorf("%s: Point differs from the %v path:\ngot  %+v\nwant %+v", name, k, got, want)
				}
			}
		}
	}
}

// TestGridRunLeaksNoGoroutines cancels a full-execution grid mid-run
// and runs a grid that ends on an invalid cell under a live context
// (which arms the engine's context watcher); neither may leave a
// goroutine behind.
func TestGridRunLeaksNoGoroutines(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.Median(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Mode:   ModeFull,
		Trials: 200,
		Seed:   1,
	}
	// Warm the shared system so the measured runs start no cache builds.
	if _, err := Run(Spec{System: spec.System, Bench: spec.Bench, Model: spec.Model, Trials: 1}, 700); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	grid := Grid{Spec: spec, Axes: Axes{Freqs: []float64{700, 750, 800}}}
	var once sync.Once
	grid.Spec.Progress = func(Progress) { once.Do(cancel) }
	if _, err := grid.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled full grid: err=%v, want context.Canceled", err)
	}
	leaktest.Settles(t, base)

	base = runtime.NumGoroutine()
	spec.Mode = ModeAuto
	spec.Trials = 4
	live, stop := context.WithCancel(context.Background())
	defer stop()
	cells, err := (Grid{Spec: spec, Axes: Axes{Vdds: []float64{0.7, 0.3}, Freqs: []float64{700, 720}}}).RunContext(live)
	if err == nil || len(cells) != 2 {
		t.Fatalf("invalid-cell grid: %d cells, err=%v; want the 2-cell prefix and an error", len(cells), err)
	}
	leaktest.Settles(t, base)
}
