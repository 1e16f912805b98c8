package dta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/isa"
	"repro/internal/timing"
)

// diffGrid returns the first difference between two violation grids,
// comparing every probability bit for bit, or "".
func diffGrid(got, want *ViolationGrid) string {
	if got.StepPs != want.StepPs || math.Float64bits(got.MaxPs) != math.Float64bits(want.MaxPs) {
		return fmt.Sprintf("StepPs/MaxPs %v/%v, reference %v/%v", got.StepPs, got.MaxPs, want.StepPs, want.MaxPs)
	}
	if !reflect.DeepEqual(got.Active, want.Active) {
		return fmt.Sprintf("Active %v, reference %v", got.Active, want.Active)
	}
	if len(got.PNone) != len(want.PNone) || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d points × %d rows, reference %d × %d", len(got.PNone), len(got.Rows), len(want.PNone), len(want.Rows))
	}
	for i := range want.PNone {
		if math.Float64bits(got.PNone[i]) != math.Float64bits(want.PNone[i]) {
			return fmt.Sprintf("PNone[%d] = %v, reference %v", i, got.PNone[i], want.PNone[i])
		}
		g, w := got.Row(i), want.Row(i)
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				return fmt.Sprintf("endpoint %d at index %d: %v, reference %v", want.Active[k], i, g[k], w[k])
			}
		}
	}
	return ""
}

// TestCountingGridMatchesReference pins the counting grid to the
// sort-and-search reference, bit for bit, on every key the ALU ops
// yield under the default, all-u8 and all-u16 operand profiles, at
// three voltages.
func TestCountingGridMatchesReference(t *testing.T) {
	cycles := 1024
	if testing.Short() {
		cycles = 256
	}
	c := NewCharacterizer(circuit.New(circuit.DefaultConfig()), timing.DefaultVddDelay(), Config{Cycles: cycles, Seed: 3})
	profiles := []Profile{nil, {}, {}}
	for u := circuit.UnitKind(0); u < circuit.NumUnits; u++ {
		profiles[1][u], profiles[2][u] = "u8", "u16"
	}
	seen := map[Key]bool{}
	for _, p := range profiles {
		for _, op := range isa.AllOps() {
			if !isa.IsALU(op) {
				continue
			}
			k := KeyFor(op, p)
			if seen[k] {
				continue
			}
			seen[k] = true
			for _, v := range []float64{0.6, 0.7, 0.8} {
				ch := c.RunSharded(k, v, 2)
				if d := diffGrid(newViolationGrid(ch), refViolationGrid(ch)); d != "" {
					t.Fatalf("%v @ %v V: %s", k, v, d)
				}
			}
		}
	}
	t.Logf("%d keys", len(seen))
}

// handBuilt returns a characterization over the given rows (one per
// endpoint, zero-padded to the first row's length) with the given setup
// time, its scalars filled by the comparisons run uses.
func handBuilt(setupPs float64, rows ...[]float64) *Characterization {
	ch, _ := newCharacterization(Key{Unit: circuit.UnitAdd, Gen: "u32"}, 0.7, len(rows[0]), len(rows))
	ch.SetupPs = setupPs
	for e, row := range rows {
		copy(ch.Arrivals[e], row)
		for cyc, a := range row {
			if a > ch.MaxPerCycle[cyc] {
				ch.MaxPerCycle[cyc] = a
			}
			if a > ch.MaxPs {
				ch.MaxPs = a
			}
		}
	}
	return ch
}

// onBoundary returns arrivals a with a == float64(k) - setup for k in
// [lo, hi), each with its two float neighbours, so every arrival sits
// on or next to an integer-period violation boundary.
func onBoundary(setup float64, lo, hi int) []float64 {
	var out []float64
	for k := lo; k < hi; k++ {
		a := float64(k) - setup
		out = append(out, math.Nextafter(a, math.Inf(-1)), a, math.Nextafter(a, math.Inf(1)))
	}
	return out
}

// TestCountingGridEdgeCases pins the counting grid to the reference on
// hand-built characterizations: arrivals exactly on (and one ulp either
// side of) integer periods minus setup, for setups whose subtraction
// rounds; all-zero rows; setups longer than every arrival, so the
// low grid indices are periods below setup; non-finite arrivals; and
// random mixtures of all of them.
func TestCountingGridEdgeCases(t *testing.T) {
	cases := map[string]*Characterization{
		"boundary, integer setup":   handBuilt(30, onBoundary(30, 30, 90)),
		"boundary, setup 0.1":       handBuilt(0.1, onBoundary(0.1, 1, 80), onBoundary(0.1, 40, 45)),
		"boundary, setup 17.3":      handBuilt(17.3, onBoundary(17.3, 18, 70)),
		"boundary, zero setup":      handBuilt(0, onBoundary(0, 1, 64)),
		"all-zero rows":             handBuilt(12.5, make([]float64, 16), make([]float64, 16)),
		"all-zero rows, zero setup": handBuilt(0, make([]float64, 16), make([]float64, 16)),
		"zero and nonzero rows":     handBuilt(12.5, make([]float64, 4), []float64{0, 3.25, 7, 9.999}),
		"periods below setup":       handBuilt(250.75, []float64{0, 1.5, 2, 4.25, 7, 7, 9.5}),
		"setup above every arrival": handBuilt(1e3, []float64{0.5, 1, 2}, []float64{0, 0, 0}),
		"tiny arrivals":             handBuilt(0.3, []float64{1e-300, 5e-324, 0.7 - 1e-17, 0.69999999999}),
		"non-finite arrivals":       handBuilt(5.5, []float64{math.NaN(), math.Inf(-1), 3, 0}),
		"negative arrivals":         handBuilt(2.25, []float64{-1, -2.25, -3, 1.75}),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		setup := []float64{0, 0.1, 0.5, 1, 17.3, rng.Float64() * 60}[rng.Intn(6)]
		rows := make([][]float64, 1+rng.Intn(4))
		cycles := 1 + rng.Intn(40)
		for e := range rows {
			rows[e] = make([]float64, cycles)
			for cyc := range rows[e] {
				k := rng.Intn(100)
				switch rng.Intn(4) {
				case 0:
					rows[e][cyc] = 0
				case 1:
					rows[e][cyc] = math.Max(0, float64(k)-setup)
				case 2:
					rows[e][cyc] = math.Max(0, math.Nextafter(float64(k)-setup, float64(rng.Intn(2))*200-100))
				default:
					rows[e][cyc] = rng.Float64() * 100
				}
			}
		}
		cases[fmt.Sprintf("random %d", i)] = handBuilt(setup, rows...)
	}
	for name, ch := range cases {
		if d := diffGrid(newViolationGrid(ch), refViolationGrid(ch)); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}
