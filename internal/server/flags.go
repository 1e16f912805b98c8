package server

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// GridFlags is the command-line spelling of a JobSpec's grid: cmd/sweep
// and `fisimctl submit` register these twelve flags from it, so one
// grid typed at either CLI is one canonical JobSpec and one fingerprint.
// The list flags stay comma-separated strings, as typed; JobSpec parses
// them.
type GridFlags struct {
	Bench, Model, Vdd, Sigma     string
	Lo, Hi, Step                 float64
	Trials, TrialsMin, TrialsMax int
	Seed                         int64
	Mode                         string
}

// Register defines the grid flags on fs.
func (g *GridFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&g.Bench, "bench", "median", "benchmark name(s), comma-separated")
	fs.StringVar(&g.Model, "model", "C", "fault model(s): none, A, B, B+, C (comma-separated)")
	fs.StringVar(&g.Vdd, "vdd", "0.7", "supply voltage(s) in V (comma-separated)")
	fs.StringVar(&g.Sigma, "sigma", "0", "supply noise sigma(s) in V (comma-separated)")
	fs.Float64Var(&g.Lo, "lo", 650, "sweep start in MHz")
	fs.Float64Var(&g.Hi, "hi", 1100, "sweep end in MHz")
	fs.Float64Var(&g.Step, "step", 25, "sweep step in MHz")
	fs.IntVar(&g.Trials, "trials", 100, "Monte-Carlo trials per point (fixed mode)")
	fs.IntVar(&g.TrialsMin, "trials-min", 0, "adaptive mode: first batch size (with -trials-max)")
	fs.IntVar(&g.TrialsMax, "trials-max", 0, "adaptive mode: trial budget per point (0 = fixed -trials)")
	fs.Int64Var(&g.Seed, "seed", 1, "random seed")
	fs.StringVar(&g.Mode, "mode", "auto", "trial path: auto (batched first-fault sampling) or full (per-trial ISS); first-fault and scan are accepted as aliases of auto and full, with identical results")
}

// JobSpec returns the flags as a JobSpec with a frequency range. It is
// not canonical yet: the caller validates it with Canonicalize.
func (g *GridFlags) JobSpec() (JobSpec, error) {
	vdds, err := FloatList("vdd", g.Vdd)
	if err != nil {
		return JobSpec{}, err
	}
	sigmas, err := FloatList("sigma", g.Sigma)
	if err != nil {
		return JobSpec{}, err
	}
	return JobSpec{
		Benches: splitList(g.Bench), Models: splitList(g.Model),
		Vdds: vdds, Sigmas: sigmas,
		FreqLo: g.Lo, FreqHi: g.Hi, FreqStep: g.Step,
		Trials: g.Trials, TrialsMin: g.TrialsMin, TrialsMax: g.TrialsMax,
		Seed: g.Seed, Mode: g.Mode,
	}, nil
}

// FloatList parses the comma-separated value of the list flag -name;
// empty elements are skipped.
func FloatList(name, s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
