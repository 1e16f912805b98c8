package gates

import "math"

// Trans is one output transition of the reference simulator.
type Trans struct {
	T float64
	V bool
}

// This file holds the reference form of the timed simulator: one
// waveform slice per node and a separately maintained arrival array.
// The kernel oracle tests pin Sim's Value and Arrival to it, node for
// node.

// RefSim is the reference timed simulator: one []Trans slice per node
// and a separately maintained arrival array, the straightforward form
// of the kernel Sim implements over its arena. It is not safe for
// concurrent use.
type RefSim struct {
	nl    *Netlist
	delay []float64
	val   []bool // stable values after the last Cycle/Settle
	old   []bool
	arr   []float64
	wf    [][]Trans
	// Transitions counts output transitions processed by the last
	// Cycle call, a measure of switching activity.
	Transitions int
}

// NewRefSim creates a reference simulator with the given delay vector
// (length must match the netlist).
func NewRefSim(nl *Netlist, delays []float64) *RefSim {
	if len(delays) != nl.NumNodes() {
		panic("gates: delay vector length mismatch")
	}
	s := &RefSim{
		nl:    nl,
		delay: delays,
		val:   make([]bool, nl.NumNodes()),
		old:   make([]bool, nl.NumNodes()),
		arr:   make([]float64, nl.NumNodes()),
		wf:    make([][]Trans, nl.NumNodes()),
	}
	// Establish a consistent initial state (constants settled).
	s.Settle(make([]bool, len(nl.Inputs)))
	return s
}

// Settle applies an input vector (in Netlist.Inputs order) and propagates
// it functionally with all arrivals reset to zero. Use it to establish
// the pre-cycle state.
func (s *RefSim) Settle(inputs []bool) {
	if len(inputs) != len(s.nl.Inputs) {
		panic("gates: input vector length mismatch")
	}
	in := 0
	for g := range s.nl.Kind {
		k := s.nl.Kind[g]
		switch k {
		case KindInput:
			s.val[g] = inputs[in]
			in++
		default:
			f := s.nl.Fanin[g]
			var a, b, c bool
			switch k.fanins() {
			case 1:
				a = s.val[f[0]]
			case 2:
				a, b = s.val[f[0]], s.val[f[1]]
			case 3:
				a, b, c = s.val[f[0]], s.val[f[1]], s.val[f[2]]
			}
			s.val[g] = Eval(k, a, b, c)
		}
		s.arr[g] = 0
	}
}

// Cycle applies a new input vector at t=0 and performs the timed
// propagation. Afterwards Value and Arrival report the settled value and
// the final-transition time of every node.
func (s *RefSim) Cycle(inputs []bool) {
	if len(inputs) != len(s.nl.Inputs) {
		panic("gates: input vector length mismatch")
	}
	copy(s.old, s.val)
	s.Transitions = 0
	in := 0
	for g := range s.nl.Kind {
		k := s.nl.Kind[g]
		wf := s.wf[g][:0]
		switch k {
		case KindInput:
			nv := inputs[in]
			in++
			if nv != s.old[g] {
				wf = append(wf, Trans{0, nv})
				s.val[g] = nv
				s.arr[g] = 0
			} else {
				s.val[g] = nv
				s.arr[g] = 0
			}
		case KindConst0, KindConst1:
			// No activity.
		default:
			wf = s.propagate(g, wf)
		}
		s.wf[g] = wf
		if n := len(wf); n > 0 {
			s.val[g] = wf[n-1].V
			s.arr[g] = wf[n-1].T
			s.Transitions += n
		} else {
			s.val[g] = s.old[g]
			if k == KindInput {
				s.val[g] = inputs[in-1]
			}
			s.arr[g] = 0
		}
	}
}

// propagate computes the output waveform of gate g from its fanin
// waveforms using transport delay with inertial pulse rejection.
func (s *RefSim) propagate(g int, out []Trans) []Trans {
	k := s.nl.Kind[g]
	nf := k.fanins()
	f := s.nl.Fanin[g]
	d := s.delay[g]

	// Current input values start at the pre-cycle stable values.
	var cur [3]bool
	var idx [3]int
	for i := 0; i < nf; i++ {
		cur[i] = s.old[f[i]]
	}
	initial := Eval(k, cur[0], cur[1], cur[2])

	tailV := func() bool {
		if len(out) > 0 {
			return out[len(out)-1].V
		}
		return initial
	}

	for {
		// Find the earliest pending transition among fanins.
		t := math.Inf(1)
		for i := 0; i < nf; i++ {
			w := s.wf[f[i]]
			if idx[i] < len(w) && w[idx[i]].T < t {
				t = w[idx[i]].T
			}
		}
		if math.IsInf(t, 1) {
			break
		}
		// Apply every transition at exactly t.
		for i := 0; i < nf; i++ {
			w := s.wf[f[i]]
			for idx[i] < len(w) && w[idx[i]].T == t {
				cur[i] = w[idx[i]].V
				idx[i]++
			}
		}
		v := Eval(k, cur[0], cur[1], cur[2])
		if v == tailV() {
			continue
		}
		tt := t + d
		if n := len(out); n > 0 && tt-out[n-1].T < d {
			// Inertial rejection: the previous pulse is narrower
			// than the gate delay; it never appears at the output.
			out = out[:n-1]
		} else {
			out = append(out, Trans{tt, v})
		}
	}
	return out
}

// Value returns the settled value of a node after the last Cycle/Settle.
func (s *RefSim) Value(node int32) bool { return s.val[node] }

// Arrival returns the final-transition time of a node in the last Cycle
// (0 when the node did not toggle).
func (s *RefSim) Arrival(node int32) float64 { return s.arr[node] }
