package gates_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// operand draws for the kernel tests: full-width words, narrow words
// (most high inputs quiet) and repeats (no input toggles at all).
func drawOperands(rng *rand.Rand, prev [2]uint32) [2]uint32 {
	switch rng.Intn(6) {
	case 0:
		return [2]uint32{rng.Uint32() & 0xFF, rng.Uint32() & 0xFF}
	case 1:
		return [2]uint32{rng.Uint32(), rng.Uint32() & 31}
	case 2:
		return prev
	default:
		return [2]uint32{rng.Uint32(), rng.Uint32()}
	}
}

// TestArenaKernelMatchesReference pins the arena kernel to the
// reference simulator on every unit netlist of the real ALU: after
// every Settle and Cycle, every node's Value and Arrival and the cycle's
// transition count must be identical. It runs at the reference delays,
// at a slowed-down voltage point, and with delays rounded to 8 ps
// steps, where simultaneous fanin events and pulses exactly one gate
// delay wide are common.
func TestArenaKernelMatchesReference(t *testing.T) {
	alu := circuit.New(circuit.DefaultConfig())
	cycles := 500
	if testing.Short() {
		cycles = 100
	}
	for _, u := range alu.Units {
		for variant, factor := range []float64{1, 1.6, 1} {
			delays := u.Netlist.DelaysAt(factor)
			if variant == 2 {
				for i, d := range delays {
					delays[i] = math.Round(d/8) * 8
				}
			}
			sim := gates.NewSim(u.Netlist, delays)
			ref := gates.NewRefSim(u.Netlist, delays)
			rng := rand.New(rand.NewSource(int64(u.Kind)*31 + int64(variant)))
			in := circuit.PackInputs(nil, 0, 0)
			ops := [2]uint32{}
			for cyc := 0; cyc < cycles; cyc++ {
				ops = drawOperands(rng, ops)
				in = circuit.PackInputs(in, ops[0], ops[1])
				step := "Cycle"
				if cyc%37 == 0 {
					step = "Settle"
					sim.Settle(in)
					ref.Settle(in)
				} else {
					sim.Cycle(in)
					ref.Cycle(in)
					if sim.Transitions != ref.Transitions {
						t.Fatalf("unit %d delays #%d cycle %d: %d transitions, reference %d",
							u.Kind, variant, cyc, sim.Transitions, ref.Transitions)
					}
				}
				for g := int32(0); g < int32(u.Netlist.NumNodes()); g++ {
					if sim.Value(g) != ref.Value(g) || sim.Arrival(g) != ref.Arrival(g) {
						t.Fatalf("unit %d delays #%d %s %d node %d: value %v arrival %v, reference %v %v",
							u.Kind, variant, step, cyc, g, sim.Value(g), sim.Arrival(g), ref.Value(g), ref.Arrival(g))
					}
				}
			}
		}
	}
}

// TestCycleLeavesFunctionalState is the invariant that lets DTA shard
// its cycles: after every timed Cycle, every node of every unit netlist
// holds the value a fresh functional Settle on the same inputs gives, so
// the state a cycle starts from depends on the previous inputs alone.
func TestCycleLeavesFunctionalState(t *testing.T) {
	alu := circuit.New(circuit.DefaultConfig())
	cycles := 500
	if testing.Short() {
		cycles = 100
	}
	for _, u := range alu.Units {
		delays := u.Netlist.DelaysAt(1.3)
		sim := gates.NewSim(u.Netlist, delays)
		fresh := gates.NewSim(u.Netlist, delays)
		rng := rand.New(rand.NewSource(int64(u.Kind) + 100))
		in := circuit.PackInputs(nil, 0, 0)
		ops := [2]uint32{}
		for cyc := 0; cyc < cycles; cyc++ {
			ops = drawOperands(rng, ops)
			in = circuit.PackInputs(in, ops[0], ops[1])
			sim.Cycle(in)
			fresh.Settle(in)
			for g := int32(0); g < int32(u.Netlist.NumNodes()); g++ {
				if sim.Value(g) != fresh.Value(g) {
					t.Fatalf("unit %d cycle %d (a=%#x b=%#x): node %d timed %v, settled %v",
						u.Kind, cyc, ops[0], ops[1], g, sim.Value(g), fresh.Value(g))
				}
			}
		}
	}
}

type cycler interface{ Cycle([]bool) }

// benchmarkCycle times timed Cycles over every unit netlist of the ALU
// with full-width random operands, the DTA's inner loop.
func benchmarkCycle(b *testing.B, newSim func(*gates.Netlist, []float64) cycler) {
	alu := circuit.New(circuit.DefaultConfig())
	sims := make([]cycler, len(alu.Units))
	for i, u := range alu.Units {
		sims[i] = newSim(u.Netlist, u.Netlist.DelaysAt(1.3))
	}
	rng := rand.New(rand.NewSource(1))
	in := circuit.PackInputs(nil, 0, 0)
	for b.Loop() {
		in = circuit.PackInputs(in, rng.Uint32(), rng.Uint32())
		for _, s := range sims {
			s.Cycle(in)
		}
	}
}

// BenchmarkCycle compares the arena kernel with the reference:
//
//	go test -run '^$' -bench Cycle -benchtime 3000x ./internal/gates/
func BenchmarkCycle(b *testing.B) {
	b.Run("arena", func(b *testing.B) {
		benchmarkCycle(b, func(nl *gates.Netlist, d []float64) cycler { return gates.NewSim(nl, d) })
	})
	b.Run("reference", func(b *testing.B) {
		benchmarkCycle(b, func(nl *gates.Netlist, d []float64) cycler { return gates.NewRefSim(nl, d) })
	})
}
