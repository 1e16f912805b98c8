// Package experiments regenerates every table and figure of the paper's
// evaluation: each runner reproduces the corresponding workload,
// parameter sweep and metrics, and renders the same rows/series the paper
// reports as text tables. Absolute numbers come from our synthetic
// substrate (generated netlists instead of the authors' 28 nm test
// chip), so EXPERIMENTS.md records paper-vs-measured for each; the
// orderings, transition regions and crossovers are the reproduction
// targets.
//
// Every Monte-Carlo table and figure is declared as an mc.Grid — the
// axes it spans (benchmarks, model kinds, voltages, sigmas,
// frequencies) rather than hand-written nested loops — and runs on the
// shared grid engine. With Options.Store attached, completed cells,
// characterizations and golden traces persist across processes, so
// regenerating a figure over a warm cache costs file reads.
//
// experiments is the topmost library layer of the dependency graph: it
// declares grids for internal/mc, renders its own text tables and CSV
// series, and is driven by cmd/paperrepro and the root facade's
// ReproduceAll.
package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/timing"
)

// runSourceGolden assembles and executes a kernel fault-free, returning
// the core for statistics inspection.
func runSourceGolden(src string, cfg cpu.Config) (*cpu.CPU, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	c := cpu.New(mem.New(), nil, cfg)
	if err := c.Load(p); err != nil {
		return nil, err
	}
	c.SetWatchdog(100_000_000)
	if st := c.Run(); st != cpu.StatusExited {
		return nil, fmt.Errorf("experiments: golden run ended %v (%v)", st, c.TrapErr())
	}
	return c, nil
}

// Options configures the runners. Scale shrinks trial counts and sweep
// resolution for quick runs (tests and benches use Scale < 1; the full
// reproduction uses 1).
type Options struct {
	System *core.System
	Out    io.Writer
	Seed   int64
	Scale  float64
	// Progress, when non-nil, receives grid-engine progress snapshots
	// from every Monte-Carlo run a figure performs (see mc.Spec.Progress).
	Progress func(mc.Progress)
	// Store, when non-nil, checkpoints completed grid cells and resumes
	// from them, in addition to the characterization/golden-trace caches
	// the System itself consults.
	Store *artifact.Store
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) trials(full int) int {
	n := int(float64(full) * o.Scale)
	if n < 4 {
		n = 4
	}
	return n
}

func (o Options) freqs(lo, hi, step float64) []float64 {
	if o.Scale < 1 {
		step *= math.Sqrt(1 / o.Scale)
	}
	return mc.FreqRange(lo, hi, step)
}

func (o Options) spec(b *bench.Benchmark, model core.ModelSpec, fullTrials int) mc.Spec {
	return mc.Spec{
		System:   o.System,
		Bench:    b,
		Model:    model,
		Trials:   o.trials(fullTrials),
		Seed:     o.Seed,
		Progress: o.Progress,
	}
}

// runGrid evaluates one declarative grid through the shared engine,
// wiring the options' artifact store for cell checkpoint/resume.
func (o Options) runGrid(spec mc.Spec, axes mc.Axes) ([]mc.CellResult, error) {
	return mc.Grid{Spec: spec, Axes: axes, Store: o.Store, Resume: o.Store != nil}.Run()
}

// pointsOf strips cell metadata from a slice of grid cells.
func pointsOf(cells []mc.CellResult) []mc.Point {
	pts := make([]mc.Point, len(cells))
	for i, c := range cells {
		pts[i] = c.Point
	}
	return pts
}

// Series is one labelled sweep result.
type Series struct {
	Label  string
	Points []mc.Point
}

// printPoints renders a sweep as the paper's four per-frequency metrics.
func printPoints(w io.Writer, pts []mc.Point) {
	fmt.Fprintf(w, "  %8s %9s %9s %12s %12s\n",
		"f[MHz]", "finished", "correct", "FI/kCycle", "output-err")
	for _, p := range pts {
		fmt.Fprintf(w, "  %8.1f %8.1f%% %8.1f%% %12.4f %12.4g\n",
			p.FreqMHz, p.FinishedPct, p.CorrectPct, p.FIRate, p.OutputErr)
	}
}

// Table1 reproduces the benchmark-properties table: type, workload size,
// kernel cycles and output-error metric, measured on our implementations.
// Declaratively it is the (benchmark) axis of the grid at one fault-free
// operating point, one trial per cell.
func Table1(o Options) ([]mc.Point, error) {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 1: benchmark properties (measured)")
	fmt.Fprintf(o.Out, "  %-16s %-12s %-10s %-10s %12s %-28s\n",
		"benchmark", "compute", "control", "mul-frac", "kCycles", "output error metric")
	spec := o.spec(nil, core.ModelSpec{Kind: "none"}, 1)
	spec.Trials = 1
	cells, err := o.runGrid(spec, mc.Axes{
		Benches: bench.All(),
		Freqs:   []float64{700},
	})
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	pts := pointsOf(cells)
	for i, b := range bench.All() {
		mix, err := kernelMix(o.System, b)
		if err != nil {
			return nil, err
		}
		compute, control := classify(mix)
		fmt.Fprintf(o.Out, "  %-16s %-12s %-10s %-10.3f %12.0f %-28s\n",
			b.Name, compute, control, mix.mulFrac, pts[i].KernelCycles/1000, b.MetricName)
	}
	return pts, nil
}

type mixInfo struct {
	mulFrac, cmpFrac, branchFrac, aluFrac float64
}

func kernelMix(sys *core.System, b *bench.Benchmark) (mixInfo, error) {
	// Re-run fault-free on a private CPU to read the instruction mix.
	src, _, err := b.Build(42)
	if err != nil {
		return mixInfo{}, err
	}
	c, err := runSourceGolden(src, sys.Cfg.CPU)
	if err != nil {
		return mixInfo{}, err
	}
	m := c.Mix()
	tot := float64(m.Total)
	return mixInfo{
		mulFrac:    float64(m.Mul) / tot,
		cmpFrac:    float64(m.Compare) / tot,
		branchFrac: float64(m.Control) / tot,
		aluFrac:    float64(m.ALU) / tot,
	}, nil
}

func classify(m mixInfo) (compute, control string) {
	switch {
	case m.mulFrac > 0.05:
		compute = "++"
	case m.mulFrac > 0.005:
		compute = "+"
	default:
		compute = "-"
	}
	switch {
	case m.cmpFrac+m.branchFrac > 0.45:
		control = "++"
	case m.cmpFrac+m.branchFrac > 0.30:
		control = "+"
	default:
		control = "-"
	}
	return compute, control
}

// Table2 renders the model feature matrix (static, from the paper's
// Table 2; our implementations follow the same taxonomy).
func Table2(o Options) {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "Table 2: timing error models & features")
	fmt.Fprintf(o.Out, "  %-6s %-38s %-8s %-9s %-9s %-12s %-10s\n",
		"model", "fault injection technique", "timing", "multi-Vdd", "Vdd-noise", "gate-aware", "instr-aware")
	rows := [][7]string{
		{"A", "fixed probability", "none", "no", "no", "no", "no"},
		{"B", "fixed period violation", "STA", "yes", "no", "partially", "no"},
		{"B+", "modulated period violation", "STA", "yes", "yes", "partially", "no"},
		{"C", "probabilistic period violation (CDFs)", "DTA", "yes", "yes", "yes", "yes"},
	}
	for _, r := range rows {
		fmt.Fprintf(o.Out, "  %-6s %-38s %-8s %-9s %-9s %-12s %-10s\n",
			r[0], r[1], r[2], r[3], r[4], r[5], r[6])
	}
}

// Fig1 reproduces the static-model behaviour on the median benchmark:
// model B at 0.7 V and model B+ with sigma = 10 and 25 mV, swept in a
// narrow band above each first-FI frequency. The expected shape is a
// hard threshold: finished/correct collapse within a few MHz, with the
// noise moving the cliff from 707 down to about 661 / 588 MHz and the
// onset FI rate dropping to about 10/kCycle.
func Fig1(o Options) ([]Series, error) {
	o = o.withDefaults()
	med := bench.Median()
	var out []Series
	for _, cfg := range []struct {
		label string
		kind  string
		sigma float64
	}{
		{"(a) model B, sigma=0mV", "B", 0},
		{"(b) model B+, sigma=10mV", "B+", 0.010},
		{"(c) model B+, sigma=25mV", "B+", 0.025},
	} {
		model := core.ModelSpec{Kind: cfg.kind, Vdd: 0.7, Sigma: cfg.sigma}
		probe, err := o.System.Model(core.ModelSpec{Kind: cfg.kind, Vdd: 0.7, Sigma: cfg.sigma, FreqMHz: 700})
		if err != nil {
			return nil, err
		}
		first := 707.0
		if mb, ok := probe.(interface{ FirstFIMHz() float64 }); ok {
			first = mb.FirstFIMHz()
		}
		// Each static-model series is a single-axis grid over the narrow
		// band above its own first-FI frequency.
		cells, err := o.runGrid(o.spec(med, model, 100), mc.Axes{
			Freqs: o.freqs(math.Floor(first)-1, math.Floor(first)+4, 0.5),
		})
		if err != nil {
			return nil, err
		}
		pts := pointsOf(cells)
		fmt.Fprintf(o.Out, "Fig 1 %s: first FI at %.1f MHz (paper: 707 / 661 / 588)\n", cfg.label, first)
		printPoints(o.Out, pts)
		out = append(out, Series{Label: cfg.label, Points: pts})
	}
	return out, nil
}

// Fig2 reproduces the DTA timing-error CDFs for l.add and l.mul, result
// bits 3 and 24, at 0.7 V and 0.8 V: probability of timing violation vs
// clock frequency.
func Fig2(o Options) (map[string][]float64, error) {
	o = o.withDefaults()
	freqs := o.freqs(700, 2000, 50)
	out := map[string][]float64{"freqMHz": freqs}
	fmt.Fprintln(o.Out, "Fig 2: DTA timing-error probability CDFs")
	fmt.Fprintf(o.Out, "  %8s", "f[MHz]")
	type curve struct {
		name string
		op   isa.Op
		bit  int
		vdd  float64
	}
	curves := []curve{
		{"mul.bit3@0.7V", isa.OpMul, 3, 0.7},
		{"mul.bit24@0.7V", isa.OpMul, 24, 0.7},
		{"mul.bit24@0.8V", isa.OpMul, 24, 0.8},
		{"add.bit3@0.7V", isa.OpAdd, 3, 0.7},
		{"add.bit24@0.7V", isa.OpAdd, 24, 0.7},
		{"add.bit24@0.8V", isa.OpAdd, 24, 0.8},
	}
	for _, c := range curves {
		fmt.Fprintf(o.Out, " %14s", c.name)
	}
	fmt.Fprintln(o.Out)
	chs := make([]*dta.Characterization, len(curves))
	for i, c := range curves {
		ch, err := o.System.Char.ForOp(c.op, nil, c.vdd)
		if err != nil {
			return nil, err
		}
		chs[i] = ch
	}
	for i, c := range curves {
		series := make([]float64, len(freqs))
		cdf := chs[i].CDF(c.bit)
		for j, f := range freqs {
			series[j] = cdf.ViolationProb(circuit.PeriodPs(f))
		}
		out[c.name] = series
	}
	for j := range freqs {
		fmt.Fprintf(o.Out, "  %8.0f", freqs[j])
		for _, c := range curves {
			fmt.Fprintf(o.Out, " %13.1f%%", out[c.name][j]*100)
		}
		fmt.Fprintln(o.Out)
	}
	return out, nil
}

// Fig4 reproduces the instruction characterization: MSE vs frequency for
// 16-bit addition, 32-bit addition and 16x16-bit multiplication under
// model C at 0.7 V with sigma = 10 mV. The paper's points of first
// failure are 877, 746 and 685 MHz with the ordering mul < add32 <
// add16.
func Fig4(o Options) ([]Series, error) {
	o = o.withDefaults()
	freqs := o.freqs(650, 1150, 25)
	benches := []*bench.Benchmark{bench.MicroMul16(), bench.MicroAdd32(), bench.MicroAdd16()}
	fmt.Fprintln(o.Out, "Fig 4: MSE vs frequency per instruction (model C, 0.7V, sigma=10mV)")
	// One two-axis grid: (microkernel × frequency) under model C.
	cells, err := o.runGrid(
		o.spec(nil, core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, 100),
		mc.Axes{Benches: benches, Freqs: freqs},
	)
	if err != nil {
		return nil, err
	}
	var out []Series
	for i, b := range benches {
		pts := pointsOf(cells[i*len(freqs) : (i+1)*len(freqs)])
		first := math.NaN()
		for _, p := range pts {
			if p.OutputErr > 0 {
				first = p.FreqMHz
				break
			}
		}
		fmt.Fprintf(o.Out, " %s: first MSE>0 at %.0f MHz\n", b.Name, first)
		printPoints(o.Out, pts)
		out = append(out, Series{Label: b.Name, Points: pts})
	}
	return out, nil
}

// Fig5 reproduces the median benchmark's program performance under model
// C for Vdd in {0.7, 0.8} V and sigma in {0, 10, 25} mV: finished,
// correct, FI rate and relative output error vs frequency, with the PoFF
// and its gain over the STA limit annotated.
func Fig5(o Options) ([]Series, error) {
	o = o.withDefaults()
	med := bench.Median()
	var out []Series
	for _, cfg := range []struct {
		vdd   float64
		sigma float64
	}{
		{0.7, 0}, {0.7, 0.010}, {0.7, 0.025},
		{0.8, 0}, {0.8, 0.010}, {0.8, 0.025},
	} {
		sta := o.System.STALimitMHz(cfg.vdd)
		// Each (Vdd, sigma) series spans its own frequency band around
		// that voltage's STA limit, so the declaration stays per-series.
		lo := math.Max(620, sta*0.92-40*1000*cfg.sigma)
		hi := math.Min(sta*1.45, o.System.NonALUSafeMHz(cfg.vdd)-1)
		model := core.ModelSpec{Kind: "C", Vdd: cfg.vdd, Sigma: cfg.sigma}
		cells, err := o.runGrid(o.spec(med, model, 200), mc.Axes{
			Freqs: o.freqs(lo, hi, 10),
		})
		if err != nil {
			return nil, err
		}
		pts := pointsOf(cells)
		label := fmt.Sprintf("Vdd=%.1fV sigma=%.0fmV", cfg.vdd, cfg.sigma*1000)
		fmt.Fprintf(o.Out, "Fig 5 %s: STA limit %.0f MHz", label, sta)
		if poff, ok := mc.PoFF(pts); ok {
			fmt.Fprintf(o.Out, ", PoFF %.0f MHz (gain %.1f%%)", poff, mc.GainOverSTA(poff, sta))
		} else {
			fmt.Fprintf(o.Out, ", no failure in range")
		}
		fmt.Fprintln(o.Out)
		printPoints(o.Out, pts)
		out = append(out, Series{Label: label, Points: pts})
	}
	return out, nil
}

// Fig6 reproduces the benchmark comparison at 0.7 V with sigma = 10 mV
// under model C, and contrasts it with model B+'s single hard threshold
// that hits all benchmarks identically.
func Fig6(o Options) ([]Series, error) {
	o = o.withDefaults()
	var out []Series
	bplus, err := o.System.Model(core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010, FreqMHz: 700})
	if err != nil {
		return nil, err
	}
	if mb, ok := bplus.(interface{ FirstFIMHz() float64 }); ok {
		fmt.Fprintf(o.Out, "Fig 6: model B+ hard threshold at %.0f MHz for every benchmark (paper: 661)\n",
			mb.FirstFIMHz())
	}
	sta := o.System.STALimitMHz(0.7)
	benches := []*bench.Benchmark{
		bench.MatMult8(), bench.MatMult16(), bench.KMeans(), bench.Dijkstra(),
	}
	freqs := o.freqs(680, 1000, 10)
	// One two-axis grid: (application benchmark × frequency) under
	// model C at the shared operating conditions.
	cells, err := o.runGrid(
		o.spec(nil, core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}, 100),
		mc.Axes{Benches: benches, Freqs: freqs},
	)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		pts := pointsOf(cells[i*len(freqs) : (i+1)*len(freqs)])
		fmt.Fprintf(o.Out, "Fig 6 (%s):", b.Name)
		if poff, ok := mc.PoFF(pts); ok {
			fmt.Fprintf(o.Out, " PoFF %.0f MHz (gain %.1f%% over STA %.0f)", poff, mc.GainOverSTA(poff, sta), sta)
		}
		fmt.Fprintln(o.Out)
		printPoints(o.Out, pts)
		out = append(out, Series{Label: b.Name, Points: pts})
	}
	return out, nil
}

// Fig7Point is one operating point of the error-vs-power trade-off.
type Fig7Point struct {
	Vdd             float64
	NormalizedPower float64
	AvgRelErrPct    float64
	FinishedPct     float64
}

// Fig7 reproduces the error-vs-power trade-off for the median benchmark:
// the core runs at the nominal 707 MHz clock while the supply is scaled
// below 0.7 V; quality comes from model C and power from quadratic
// voltage scaling. Landmarks in the paper: PoFF at 0.667 V (0.93x
// power; our power model gives about 0.91x) and 22% error at 0.657 V
// (0.88x).
func Fig7(o Options) (map[string][]Fig7Point, error) {
	o = o.withDefaults()
	med := bench.Median()
	pm := o.System.Cfg.Power
	fNom := o.System.STALimitMHz(timing.VRef)
	out := map[string][]Fig7Point{}
	// Scale the supply downward from the nominal 0.7 V so the frontier
	// always starts at the error-free nominal point.
	vStep := 0.005
	if o.Scale < 1 {
		vStep *= math.Sqrt(1 / o.Scale)
	}
	var volts []float64
	for v := timing.VRef; v >= 0.630-1e-9; v -= vStep {
		volts = append(volts, v)
	}
	// One two-axis grid: (Vdd × sigma) under model C at the fixed
	// nominal clock. The series rendering below still truncates each
	// sigma's frontier once the error saturates, as the paper's figure
	// does.
	sigmas := []float64{0, 0.010, 0.025}
	cells, err := o.runGrid(
		o.spec(med, core.ModelSpec{Kind: "C"}, 100),
		mc.Axes{Vdds: volts, Sigmas: sigmas, Freqs: []float64{fNom}},
	)
	if err != nil {
		return nil, err
	}
	// Enumeration is Vdd-major, sigma inner: cell (vi, si) sits at
	// vi*len(sigmas)+si.
	for si, sigma := range sigmas {
		label := fmt.Sprintf("sigma=%.0fmV", sigma*1000)
		var series []Fig7Point
		fmt.Fprintf(o.Out, "Fig 7 (%s): fixed f = %.0f MHz\n", label, fNom)
		fmt.Fprintf(o.Out, "  %8s %10s %12s %10s\n", "Vdd[V]", "P/Pnom", "avg-rel-err", "finished")
		for vi, v := range volts {
			pt := cells[vi*len(sigmas)+si].Point
			fp := Fig7Point{
				Vdd:             v,
				NormalizedPower: pm.Normalized(v, timing.VRef, fNom),
				AvgRelErrPct:    pt.OutputErrAll,
				FinishedPct:     pt.FinishedPct,
			}
			fmt.Fprintf(o.Out, "  %8.3f %10.3f %11.1f%% %9.1f%%\n",
				fp.Vdd, fp.NormalizedPower, fp.AvgRelErrPct, fp.FinishedPct)
			series = append(series, fp)
			if fp.AvgRelErrPct >= 99.5 {
				break
			}
		}
		out[label] = series
	}
	return out, nil
}
