// Package gates provides the gate-level netlist substrate of the
// simulator: combinational netlists built from a small standard-cell-like
// library, with per-gate nominal delays and per-gate voltage-sensitivity
// exponents (process heterogeneity), plus static longest-path analysis and
// an event-driven timed logic simulator used by the dynamic timing
// analysis (internal/dta).
//
// The timed simulator applies a new input vector at t=0 and propagates
// transitions through the netlist in topological order using a transport
// delay model with inertial pulse rejection (pulses narrower than a gate's
// delay are filtered). The quantity of interest per evaluation is each
// output's arrival time: the time of its final transition within the
// cycle, which is exactly what the paper's dynamic timing analysis
// extracts from the post place & route netlist.
//
// gates is a leaf of the dependency graph (stdlib only);
// internal/circuit generates its netlists from these cells and
// internal/dta simulates them.
package gates

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind enumerates the cell library.
type Kind uint8

// Cell kinds. Xor3 and Maj3 exist so full adders cost two cells instead of
// five, which keeps multiplier netlists tractable; their delays are set to
// match the equivalent two-level decompositions.
const (
	KindInput Kind = iota
	KindConst0
	KindConst1
	KindNot
	KindBuf
	KindAnd2
	KindOr2
	KindNand2
	KindNor2
	KindXor2
	KindXnor2
	KindXor3
	KindMaj3
	KindMux2 // fanin: sel, a0, a1; out = sel ? a1 : a0
	numKinds
)

// fanins returns the number of inputs a kind consumes.
func (k Kind) fanins() int {
	switch k {
	case KindInput, KindConst0, KindConst1:
		return 0
	case KindNot, KindBuf:
		return 1
	case KindXor3, KindMaj3, KindMux2:
		return 3
	default:
		return 2
	}
}

// String names the kind.
func (k Kind) String() string {
	names := [...]string{"input", "const0", "const1", "not", "buf", "and2",
		"or2", "nand2", "nor2", "xor2", "xnor2", "xor3", "maj3", "mux2"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Eval computes the boolean function of a kind on up to three inputs.
func Eval(k Kind, a, b, c bool) bool {
	switch k {
	case KindConst0:
		return false
	case KindConst1:
		return true
	case KindNot:
		return !a
	case KindBuf, KindInput:
		return a
	case KindAnd2:
		return a && b
	case KindOr2:
		return a || b
	case KindNand2:
		return !(a && b)
	case KindNor2:
		return !(a || b)
	case KindXor2:
		return a != b
	case KindXnor2:
		return a == b
	case KindXor3:
		return (a != b) != c
	case KindMaj3:
		return a && b || a && c || b && c
	case KindMux2:
		if a {
			return c
		}
		return b
	}
	return false
}

// Netlist is an immutable combinational netlist. Node IDs are dense and
// creation order is a valid topological order (the builder only connects
// existing nodes).
type Netlist struct {
	Kind  []Kind
	Fanin [][3]int32
	D0    []float64 // nominal delay in ps at the reference voltage
	Eta   []float64 // per-gate voltage-sensitivity exponent scale

	Inputs  []int32          // Input nodes in declaration order
	Outputs map[string]int32 // named endpoints
}

// NumNodes returns the node count.
func (n *Netlist) NumNodes() int { return len(n.Kind) }

// Scale multiplies every nominal gate delay by f. It is used to calibrate
// a unit's worst path against the synthesis clock constraint.
func (n *Netlist) Scale(f float64) {
	for i := range n.D0 {
		n.D0[i] *= f
	}
}

// DelaysAt returns the per-gate delay vector for a global voltage-derived
// delay factor. Each gate responds as factor^eta with its own eta, which
// models that paths of different gate composition do not scale perfectly
// uniformly over voltage.
func (n *Netlist) DelaysAt(factor float64) []float64 {
	d := make([]float64, len(n.D0))
	if factor == 1 {
		copy(d, n.D0)
		return d
	}
	for i := range d {
		d[i] = n.D0[i] * math.Pow(factor, n.Eta[i])
	}
	return d
}

// STA computes, for every node, the static worst-case arrival time under
// the given delay vector: the classic longest-path recurrence with all
// primary inputs arriving at t=0. It ignores logic masking, exactly like
// the static analysis that model B of the paper builds on.
func (n *Netlist) STA(delays []float64) []float64 {
	arr := make([]float64, n.NumNodes())
	for g := range n.Kind {
		k := n.Kind[g]
		nf := k.fanins()
		if nf == 0 {
			arr[g] = 0
			continue
		}
		worst := 0.0
		for i := 0; i < nf; i++ {
			if a := arr[n.Fanin[g][i]]; a > worst {
				worst = a
			}
		}
		arr[g] = worst + delays[g]
	}
	return arr
}

// WorstOutputArrival returns the largest STA arrival over the named
// outputs and the name achieving it.
func (n *Netlist) WorstOutputArrival(delays []float64) (float64, string) {
	arr := n.STA(delays)
	worst, at := 0.0, ""
	for name, node := range n.Outputs {
		if arr[node] > worst || at == "" {
			worst, at = arr[node], name
		}
	}
	return worst, at
}

// DelayModel assigns nominal delays and voltage sensitivities to new
// gates. FOUR/NAND-class cells are fast; XOR-class cells slow, mirroring
// standard-cell libraries.
type DelayModel struct {
	rng *rand.Rand
	// Variation is the half-width of the uniform per-gate delay spread
	// (0.1 means +/-10%).
	Variation float64
	// EtaSpread is the half-width of the per-gate voltage-sensitivity
	// spread around 1.0.
	EtaSpread float64
}

// NewDelayModel returns a seeded delay model with the default spreads.
func NewDelayModel(seed int64) *DelayModel {
	return &DelayModel{rng: rand.New(rand.NewSource(seed)), Variation: 0.10, EtaSpread: 0.05}
}

// base nominal delays (ps) per kind at the reference voltage. The
// absolute scale is irrelevant because units are calibrated against the
// clock constraint; the ratios follow typical 28 nm cell libraries.
var baseDelay = [numKinds]float64{
	KindInput: 0, KindConst0: 0, KindConst1: 0,
	KindNot: 11, KindBuf: 14,
	KindAnd2: 19, KindOr2: 20, KindNand2: 14, KindNor2: 16,
	KindXor2: 28, KindXnor2: 28,
	KindXor3: 52, KindMaj3: 30,
	KindMux2: 24,
}

// delay draws a nominal delay and sensitivity for one instance of kind k.
func (m *DelayModel) delay(k Kind) (d0, eta float64) {
	b := baseDelay[k]
	if b == 0 {
		return 0, 1
	}
	d0 = b * (1 + m.Variation*(2*m.rng.Float64()-1))
	eta = 1 + m.EtaSpread*(2*m.rng.Float64()-1)
	return d0, eta
}

// Builder incrementally constructs a netlist.
type Builder struct {
	nl *Netlist
	dm *DelayModel
}

// NewBuilder returns a builder using the given delay model.
func NewBuilder(dm *DelayModel) *Builder {
	return &Builder{
		nl: &Netlist{Outputs: map[string]int32{}},
		dm: dm,
	}
}

func (b *Builder) add(k Kind, f0, f1, f2 int32) int32 {
	id := int32(len(b.nl.Kind))
	n := int32(id)
	for i, f := range [3]int32{f0, f1, f2} {
		if i < k.fanins() && (f < 0 || f >= n) {
			panic(fmt.Sprintf("gates: fanin %d of new %v node out of range", f, k))
		}
	}
	d0, eta := b.dm.delay(k)
	b.nl.Kind = append(b.nl.Kind, k)
	b.nl.Fanin = append(b.nl.Fanin, [3]int32{f0, f1, f2})
	b.nl.D0 = append(b.nl.D0, d0)
	b.nl.Eta = append(b.nl.Eta, eta)
	if k == KindInput {
		b.nl.Inputs = append(b.nl.Inputs, id)
	}
	return id
}

// Input declares a primary input.
func (b *Builder) Input() int32 { return b.add(KindInput, 0, 0, 0) }

// Const declares a constant node.
func (b *Builder) Const(v bool) int32 {
	if v {
		return b.add(KindConst1, 0, 0, 0)
	}
	return b.add(KindConst0, 0, 0, 0)
}

// Not adds an inverter.
func (b *Builder) Not(x int32) int32 { return b.add(KindNot, x, 0, 0) }

// Buf adds a buffer.
func (b *Builder) Buf(x int32) int32 { return b.add(KindBuf, x, 0, 0) }

// And adds a 2-input AND.
func (b *Builder) And(x, y int32) int32 { return b.add(KindAnd2, x, y, 0) }

// Or adds a 2-input OR.
func (b *Builder) Or(x, y int32) int32 { return b.add(KindOr2, x, y, 0) }

// Nand adds a 2-input NAND.
func (b *Builder) Nand(x, y int32) int32 { return b.add(KindNand2, x, y, 0) }

// Nor adds a 2-input NOR.
func (b *Builder) Nor(x, y int32) int32 { return b.add(KindNor2, x, y, 0) }

// Xor adds a 2-input XOR.
func (b *Builder) Xor(x, y int32) int32 { return b.add(KindXor2, x, y, 0) }

// Xnor adds a 2-input XNOR.
func (b *Builder) Xnor(x, y int32) int32 { return b.add(KindXnor2, x, y, 0) }

// Xor3 adds a 3-input XOR (full-adder sum).
func (b *Builder) Xor3(x, y, z int32) int32 { return b.add(KindXor3, x, y, z) }

// Maj3 adds a 3-input majority (full-adder carry).
func (b *Builder) Maj3(x, y, z int32) int32 { return b.add(KindMaj3, x, y, z) }

// Mux adds a 2:1 mux: sel ? a1 : a0.
func (b *Builder) Mux(sel, a0, a1 int32) int32 { return b.add(KindMux2, sel, a0, a1) }

// Output names a node as an endpoint.
func (b *Builder) Output(name string, node int32) {
	if _, dup := b.nl.Outputs[name]; dup {
		panic(fmt.Sprintf("gates: duplicate output %q", name))
	}
	b.nl.Outputs[name] = node
}

// Build finalizes and returns the netlist.
func (b *Builder) Build() *Netlist { return b.nl }

// Trans is one output transition of the timed simulation.
type Trans struct {
	T float64
	V bool
}

// gate is the simulator's packed per-node record: everything the timed
// propagation reads about one node, in one cache-friendly struct.
type gate struct {
	kind Kind
	nf   uint8    // fanin count
	lut  uint8    // truth table: bit m is Eval(kind) on fanin bits m
	in   [3]int32 // fanins
	d    float64  // delay (ps)
}

// Sim is a reusable timed simulator for one netlist. It is not safe for
// concurrent use; create one per goroutine. Sims over the same netlist
// and delay vector are independent and may run in parallel.
//
// One Cycle's transitions live in a single arena in node order: node
// g's waveform is tr[off[g]:off[g+1]], so fanin waveforms are read from
// memory written moments earlier and nothing is allocated per cycle.
type Sim struct {
	g   []gate
	nIn int
	val []uint8 // stable values (0/1) after the last Cycle/Settle
	old []uint8 // values before the last Cycle
	tr  []Trans
	off []int32 // len NumNodes+1
	// Transitions counts output transitions processed by the last
	// Cycle call, a measure of switching activity.
	Transitions int
}

// NewSim creates a simulator with the given delay vector (length must
// match the netlist).
func NewSim(nl *Netlist, delays []float64) *Sim {
	if len(delays) != nl.NumNodes() {
		panic("gates: delay vector length mismatch")
	}
	n := nl.NumNodes()
	s := &Sim{
		g:   make([]gate, n),
		nIn: len(nl.Inputs),
		val: make([]uint8, n),
		old: make([]uint8, n),
		off: make([]int32, n+1),
	}
	for i, k := range nl.Kind {
		gt := gate{kind: k, nf: uint8(k.fanins()), in: nl.Fanin[i], d: delays[i]}
		for m := 0; m < 8; m++ {
			if Eval(k, m&1 != 0, m&2 != 0, m&4 != 0) {
				gt.lut |= 1 << m
			}
		}
		s.g[i] = gt
	}
	// Establish a consistent initial state (constants settled).
	s.Settle(make([]bool, s.nIn))
	return s
}

// faninBits packs the values of g's fanins in vals into a truth-table
// index.
func (g *gate) faninBits(vals []uint8) uint8 {
	var m uint8
	for i := 0; i < int(g.nf); i++ {
		m |= vals[g.in[i]] << i
	}
	return m
}

// Settle applies an input vector (in Netlist.Inputs order) and propagates
// it functionally with all arrivals reset to zero. Use it to establish
// the pre-cycle state.
func (s *Sim) Settle(inputs []bool) {
	if len(inputs) != s.nIn {
		panic("gates: input vector length mismatch")
	}
	in := 0
	for i := range s.g {
		g := &s.g[i]
		if g.kind == KindInput {
			s.val[i] = b2u(inputs[in])
			in++
			continue
		}
		s.val[i] = g.lut >> g.faninBits(s.val) & 1
	}
	s.tr = s.tr[:0]
	clear(s.off)
}

// Cycle applies a new input vector at t=0 and performs the timed
// propagation. Afterwards Value and Arrival report the settled value and
// the final-transition time of every node.
//
// Every node ends the cycle at the functional value of the new inputs
// (inertial rejection removes pulses but never changes a node's final
// value), so a cycle's arrivals depend on the previous and the new input
// vector alone.
func (s *Sim) Cycle(inputs []bool) {
	if len(inputs) != s.nIn {
		panic("gates: input vector length mismatch")
	}
	s.old, s.val = s.val, s.old
	s.tr = s.tr[:0]
	in := 0
	for i := range s.g {
		g := &s.g[i]
		start := int32(len(s.tr))
		s.off[i] = start
		switch g.kind {
		case KindInput:
			nv := b2u(inputs[in])
			in++
			if nv != s.old[i] {
				s.tr = append(s.tr, Trans{0, nv == 1})
			}
			s.val[i] = nv
		default: // constants have no fanins and stay quiet
			s.propagate(g, start)
			if n := int32(len(s.tr)); n > start {
				s.val[i] = b2u(s.tr[n-1].V)
			} else {
				s.val[i] = s.old[i]
			}
		}
	}
	s.off[len(s.g)] = int32(len(s.tr))
	s.Transitions = len(s.tr)
}

// propagate appends to the arena the output waveform of gate g, whose
// waveform starts at arena index start, computed from its fanin
// waveforms using transport delay with inertial pulse rejection. A gate
// whose fanins are all quiet has an empty waveform.
func (s *Sim) propagate(g *gate, start int32) {
	// pos/end delimit each fanin's pending transitions and head holds
	// the time of the next one, +Inf once none is left (and for
	// unused fanin slots).
	var pos, end [3]int32
	inf := math.Inf(1)
	head := [3]float64{inf, inf, inf}
	quiet := true
	for i := 0; i < int(g.nf); i++ {
		f := g.in[i]
		pos[i], end[i] = s.off[f], s.off[f+1]
		if pos[i] < end[i] {
			head[i] = s.tr[pos[i]].T
			quiet = false
		}
	}
	if quiet {
		return
	}
	// Input values start at the pre-cycle stable values.
	m := g.faninBits(s.old)
	tail := g.lut >> m & 1 // the output's current value
	d := g.d
	tr := s.tr
	for {
		// The earliest pending transition among fanins.
		t := head[0]
		if head[1] < t {
			t = head[1]
		}
		if head[2] < t {
			t = head[2]
		}
		if t == inf {
			break
		}
		// Apply every transition at exactly t.
		for i := range head {
			for head[i] == t {
				m = m&^(1<<i) | b2u(tr[pos[i]].V)<<i
				pos[i]++
				head[i] = inf
				if pos[i] < end[i] {
					head[i] = tr[pos[i]].T
				}
			}
		}
		v := g.lut >> m & 1
		if v == tail {
			continue
		}
		// Either way the output's value becomes v: the waveform
		// alternates, so dropping its last transition restores v too.
		tail = v
		tt := t + d
		if n := int32(len(tr)); n > start && tt-tr[n-1].T < d {
			// Inertial rejection: the previous pulse is narrower
			// than the gate delay; it never appears at the output.
			tr = tr[:n-1]
		} else {
			tr = append(tr, Trans{tt, v == 1})
		}
	}
	s.tr = tr
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Value returns the settled value of a node after the last Cycle/Settle.
func (s *Sim) Value(node int32) bool { return s.val[node] == 1 }

// Arrival returns the final-transition time of a node in the last Cycle
// (0 when the node did not toggle).
func (s *Sim) Arrival(node int32) float64 {
	if a, b := s.off[node], s.off[node+1]; b > a {
		return s.tr[b-1].T
	}
	return 0
}
