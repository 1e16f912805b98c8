package dta_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/timing"
)

// oracleKeys lists every characterization key the simulator can ask
// for: KeyFor over every ALU op under the default profile and under the
// operand profile of every registered benchmark.
func oracleKeys() []dta.Key {
	profiles := []dta.Profile{nil}
	all := append(append(bench.All(), bench.Micros()...), bench.Extras()...)
	for _, b := range all {
		profiles = append(profiles, b.Profile)
	}
	seen := map[dta.Key]bool{}
	var keys []dta.Key
	for _, p := range profiles {
		for _, op := range isa.AllOps() {
			if !isa.IsALU(op) {
				continue
			}
			if k := dta.KeyFor(op, p); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// sameBits compares two float slices bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffCharacterization returns the first difference between a sharded
// characterization and the serial reference, or "".
func diffCharacterization(got, want *dta.Characterization) string {
	if len(got.Arrivals) != len(want.Arrivals) {
		return fmt.Sprintf("%d endpoints, reference %d", len(got.Arrivals), len(want.Arrivals))
	}
	for e := range want.Arrivals {
		if !sameBits(got.Arrivals[e], want.Arrivals[e]) {
			return fmt.Sprintf("endpoint %d arrivals differ", e)
		}
	}
	if !sameBits(got.MaxPerCycle, want.MaxPerCycle) {
		return "MaxPerCycle differs"
	}
	if math.Float64bits(got.MaxPs) != math.Float64bits(want.MaxPs) ||
		math.Float64bits(got.SetupPs) != math.Float64bits(want.SetupPs) || got.Cycles != want.Cycles {
		return fmt.Sprintf("scalars MaxPs %v SetupPs %v cycles %d, reference %v %v %d",
			got.MaxPs, got.SetupPs, got.Cycles, want.MaxPs, want.SetupPs, want.Cycles)
	}
	// Probe every CDF on a half-picosecond grid past the largest period
	// that can violate.
	for e := range want.Arrivals {
		gotCDF, wantCDF := got.CDF(e), want.CDF(e)
		for p := 0.0; p <= want.MaxPs+want.SetupPs+2; p += 0.5 {
			g, w := gotCDF.ViolationProb(p), wantCDF.ViolationProb(p)
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("endpoint %d ViolationProb(%v) = %v, reference %v", e, p, g, w)
			}
		}
	}
	return ""
}

// TestShardedRunMatchesSerial pins the sharded characterization to the
// serial reference, bit for bit, for every key the simulator can ask
// for at three voltages and several shard counts, including shard
// counts above the cycle count. Shard boundaries that drop, repeat or
// misalign a cycle's operand pair show up here; comparing two sharded
// runs with each other cannot catch them.
func TestShardedRunMatchesSerial(t *testing.T) {
	alu := circuit.New(circuit.DefaultConfig())
	keys := oracleKeys()
	t.Logf("%d keys", len(keys))
	cycleCounts := []int{1, 5, 96}
	if testing.Short() {
		cycleCounts = []int{1, 5, 24}
	}
	for _, cycles := range cycleCounts {
		c := dta.NewCharacterizer(alu, timing.DefaultVddDelay(), dta.Config{Cycles: cycles, Seed: 9})
		for _, key := range keys {
			for _, v := range []float64{0.6, 0.7, 0.8} {
				want := c.RunSerial(key, v)
				for _, shards := range []int{1, 2, 3, 7} {
					if d := diffCharacterization(c.RunSharded(key, v, shards), want); d != "" {
						t.Fatalf("%v @ %v V, %d cycles, %d shards: %s", key, v, cycles, shards, d)
					}
				}
			}
		}
	}
}

// BenchmarkCharacterizeSweepKeys times one full-length (8192-cycle)
// sharded characterization of each of the six DTA keys a cold sweep of
// the sweep-session benchmark workload characterizes, at 0.7 V:
//
//	go test -run '^$' -bench CharacterizeSweepKeys -benchtime 3x ./internal/dta/
func BenchmarkCharacterizeSweepKeys(b *testing.B) {
	alu := circuit.New(circuit.DefaultConfig())
	c := dta.NewCharacterizer(alu, timing.DefaultVddDelay(), dta.DefaultConfig())
	for _, key := range dta.SweepKeys() {
		b.Run(fmt.Sprintf("%v-%s", key.Unit, key.Gen), func(b *testing.B) {
			for b.Loop() {
				c.RunSharded(key, 0.7, runtime.GOMAXPROCS(0))
			}
		})
	}
}
