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

// fuzzNetlist builds a netlist from fuzz bytes, read cyclically: 1-7
// inputs, then gates of every kind with fanins drawn from the nodes
// before them (repeats allowed) and delays on an 8 ps grid from 0 to
// 24 ps, so simultaneous fanin events and pulses exactly one gate
// delay wide are common. Up to 160 gates, so fanouts cross words of
// the simulator's dirty set.
func fuzzNetlist(data []byte) (*gates.Netlist, []float64) {
	k := 0
	next := func() int {
		b := data[k%len(data)]
		k++
		return int(b)
	}
	b := gates.NewBuilder(gates.NewDelayModel(1))
	nIn := 1 + next()%7
	for i := 0; i < nIn; i++ {
		b.Input()
	}
	delays := make([]float64, nIn)
	nGates := 1 + (next()<<8|next())%160
	for n := nIn; n < nIn+nGates; n++ {
		kind := next()
		f := [3]int32{int32(next() % n), int32(next() % n), int32(next() % n)}
		switch kind % 10 {
		case 0:
			b.Const(kind&0x80 != 0)
		case 1:
			b.Not(f[0])
		case 2:
			b.Buf(f[0])
		case 3:
			b.And(f[0], f[1])
		case 4:
			b.Or(f[0], f[1])
		case 5:
			b.Xor(f[0], f[1])
		case 6:
			b.Xor3(f[0], f[1], f[2])
		case 7:
			b.Maj3(f[0], f[1], f[2])
		case 8:
			b.Mux(f[0], f[1], f[2])
		default:
			// A gate fed the same node twice: the events of one
			// fanin reach two slots at the same instant.
			b.Xor(f[0], f[0])
		}
		d := float64(kind/10%4) * 8
		if kind%10 == 0 {
			d = 0
		}
		delays = append(delays, d)
	}
	return b.Build(), delays
}

// FuzzCycleMatchesReference runs the activity-driven kernel in
// lockstep with the reference simulator on random netlists, a random
// interleaving of Settle and Cycle, and random input vectors: after
// every step, every node's Value and Arrival and the cycle's
// transition count must be identical.
//
//	go test -run '^$' -fuzz '^FuzzCycleMatchesReference$' -fuzztime 30s ./internal/gates/
func FuzzCycleMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 40, 13, 0, 1, 2, 26, 3, 4, 5, 37, 1, 2, 0, 58, 6, 7, 8, 0x85, 0x01, 0x7f, 0x02})
	f.Add([]byte{7, 0, 159, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4})
	f.Add([]byte{1, 0, 20, 1, 0, 0, 0, 19, 1, 1, 1, 9, 0, 0, 0, 0x01, 0x00, 0x01, 0x81, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4096 {
			return
		}
		nl, delays := fuzzNetlist(data)
		sim := gates.NewSim(nl, delays)
		ref := gates.NewRefSim(nl, delays)
		in := make([]bool, len(nl.Inputs))
		// Each byte of the data is one step: bit 7 chooses Settle,
		// bits 0-6 are the input vector.
		for step, x := range data {
			for i := range in {
				in[i] = x>>i&1 != 0
			}
			op := "Cycle"
			if x&0x80 != 0 {
				op = "Settle"
				sim.Settle(in)
				ref.Settle(in)
			} else {
				sim.Cycle(in)
				ref.Cycle(in)
				if sim.Transitions != ref.Transitions {
					t.Fatalf("step %d: %d transitions, reference %d", step, sim.Transitions, ref.Transitions)
				}
			}
			for g := int32(0); g < int32(nl.NumNodes()); g++ {
				if sim.Value(g) != ref.Value(g) || math.Float64bits(sim.Arrival(g)) != math.Float64bits(ref.Arrival(g)) {
					t.Fatalf("step %d (%s %v) node %d (%v): value %v arrival %v, reference %v %v",
						step, op, in, g, nl.Kind[g], sim.Value(g), sim.Arrival(g), ref.Value(g), ref.Arrival(g))
				}
			}
		}
	})
}
