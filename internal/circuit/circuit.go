// Package circuit generates the gate-level netlists of the execution-stage
// ALU of the modelled OpenRISC core: a carry-select adder (also used in
// subtract and compare modes), a carry-save-tree multiplier with a
// carry-select final adder, a logarithmic barrel shifter, and a one-level
// logic unit, each feeding the 32 result endpoints through the two
// result-mux levels, plus the comparison-flag endpoint.
//
// # Synthesis-like calibration
//
// The paper's core is implemented with the constraint strategy of [14]: at
// sign-off, only ALU endpoints limit the clock (707 MHz at 0.7 V), which
// in practice means the synthesis tool has downsized cells until *every*
// ALU unit just meets the constraint (a data-path "timing wall"). New
// reproduces this by scaling each unit's gate delays so that its static
// worst path plus flip-flop setup equals a per-unit fraction (tightness)
// of the target clock period; data-path units sit at 1.0, the shifter and
// logic unit retain a little slack.
//
// The interesting consequences then emerge from circuit structure rather
// than hand-tuning: multiplier paths are dense (the CSA tree toggles every
// cycle), so its dynamic arrivals crowd the static limit and l.mul fails
// first under frequency over-scaling; adder worst paths need rare long
// carry chains, so l.add gains more headroom; 16-bit operands confine
// carry chains to the low half and gain the most — the orderings of the
// paper's Figs. 2 and 4.
//
// In the dependency graph, circuit builds on internal/gates (the
// netlist substrate) and internal/timing (voltage-delay scaling), and
// feeds the dta characterizer and core's STA calibration above it.
package circuit

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/isa"
)

// Width is the data-path width of the modelled core.
const Width = 32

// NumEndpoints counts the fault-injection endpoints: the 32 ALU result
// flip-flops plus the comparison-flag flop produced by the same data path
// (endpoint index 32).
const NumEndpoints = Width + 1

// FlagEndpoint is the endpoint index of the comparison flag.
const FlagEndpoint = Width

// UnitKind identifies one characterizable ALU unit configuration.
type UnitKind uint8

// ALU units. Shift and logic units are instantiated once per operation
// because their mode-select inputs are constant per instruction, which
// folds into distinct timing cones.
const (
	UnitAdd UnitKind = iota
	UnitSub
	UnitCompare
	UnitMul
	UnitSll
	UnitSrl
	UnitSra
	UnitAnd
	UnitOr
	UnitXor
	NumUnits
)

// String names the unit.
func (u UnitKind) String() string {
	names := [...]string{"add", "sub", "compare", "mul", "sll", "srl", "sra",
		"and", "or", "xor"}
	if int(u) < len(names) {
		return names[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// UnitOf maps an FI-eligible instruction to the ALU unit that executes it.
// It panics for non-ALU ops; callers gate on isa.IsALU.
func UnitOf(op isa.Op) UnitKind {
	switch isa.ClassOf(op) {
	case isa.ClassAdder:
		return UnitAdd
	case isa.ClassSubber:
		return UnitSub
	case isa.ClassCompare:
		return UnitCompare
	case isa.ClassMul:
		return UnitMul
	case isa.ClassShift:
		switch op {
		case isa.OpSll, isa.OpSlli:
			return UnitSll
		case isa.OpSrl, isa.OpSrli:
			return UnitSrl
		default:
			return UnitSra
		}
	case isa.ClassLogic:
		switch op {
		case isa.OpAnd, isa.OpAndi:
			return UnitAnd
		case isa.OpOr, isa.OpOri:
			return UnitOr
		default:
			return UnitXor
		}
	}
	panic(fmt.Sprintf("circuit: %v is not an ALU op", op))
}

// Unit is one generated netlist with its endpoint bindings. Primary
// inputs are declared in the order a0..a31, b0..b31; PackInputs produces
// matching input vectors.
type Unit struct {
	Kind     UnitKind
	Netlist  *gates.Netlist
	Endpoint [Width]int32 // result endpoints r0..r31
	Flag     int32        // flag endpoint node, or -1
	// WorstPs is the calibrated static worst arrival over the unit's
	// endpoints at the reference voltage (excluding setup).
	WorstPs float64
}

// HasFlag reports whether the unit drives the flag endpoint.
func (u *Unit) HasFlag() bool { return u.Flag >= 0 }

// PackInputs fills dst (length 2*Width) with the bit vectors of both
// operands in netlist input order and returns it.
func PackInputs(dst []bool, a, b uint32) []bool {
	if cap(dst) < 2*Width {
		dst = make([]bool, 2*Width)
	}
	dst = dst[:2*Width]
	for i := 0; i < Width; i++ {
		dst[i] = a>>uint(i)&1 == 1
		dst[Width+i] = b>>uint(i)&1 == 1
	}
	return dst
}

// Config parameterizes ALU generation.
type Config struct {
	// Seed drives the per-gate process variation.
	Seed int64
	// STAFreqMHz is the sign-off clock of the data path at the
	// reference voltage; the paper's core closes timing at 707 MHz at
	// 0.7 V.
	STAFreqMHz float64
	// SetupPs is the endpoint flip-flop setup time included in every
	// violation check.
	SetupPs float64
	// AdderGroup is the carry-select group size.
	AdderGroup int
	// Tightness maps units to the fraction of the available period
	// (target minus setup) their worst path is calibrated to. Unset
	// units use the defaults (data path 1.0, shifter 0.75, logic 0.60).
	Tightness map[UnitKind]float64
}

// DefaultConfig returns the paper's case-study parameters.
func DefaultConfig() Config {
	return Config{Seed: 28, STAFreqMHz: 707, SetupPs: 30, AdderGroup: 8}
}

func (c Config) tightness(u UnitKind) float64 {
	if t, ok := c.Tightness[u]; ok {
		return t
	}
	switch u {
	case UnitSll, UnitSrl, UnitSra:
		return 0.75
	case UnitAnd, UnitOr, UnitXor:
		return 0.60
	default:
		return 1.0
	}
}

// ALU aggregates the calibrated unit netlists.
type ALU struct {
	Units  [NumUnits]*Unit
	Config Config
	// TargetPeriodPs is the sign-off clock period at the reference
	// voltage.
	TargetPeriodPs float64
	// worstEndpoint[i] is the largest static arrival to endpoint i over
	// all units, the per-endpoint figure that model B injects against.
	worstEndpoint [NumEndpoints]float64
}

// New generates and calibrates the ALU.
func New(cfg Config) *ALU {
	if cfg.STAFreqMHz <= 0 || cfg.AdderGroup <= 0 {
		def := DefaultConfig()
		if cfg.STAFreqMHz <= 0 {
			cfg.STAFreqMHz = def.STAFreqMHz
		}
		if cfg.AdderGroup <= 0 {
			cfg.AdderGroup = def.AdderGroup
		}
		if cfg.SetupPs <= 0 {
			cfg.SetupPs = def.SetupPs
		}
	}
	a := &ALU{Config: cfg, TargetPeriodPs: PeriodPs(cfg.STAFreqMHz)}
	avail := a.TargetPeriodPs - cfg.SetupPs
	if avail <= 0 {
		panic("circuit: setup time exceeds clock period")
	}
	dm := gates.NewDelayModel(cfg.Seed)
	for k := UnitKind(0); k < NumUnits; k++ {
		u := buildUnit(k, dm, cfg.AdderGroup)
		worst, _ := u.Netlist.WorstOutputArrival(u.Netlist.DelaysAt(1))
		target := avail * cfg.tightness(k)
		u.Netlist.Scale(target / worst)
		w, _ := u.Netlist.WorstOutputArrival(u.Netlist.DelaysAt(1))
		u.WorstPs = w
		a.Units[k] = u
	}
	// Per-endpoint static worst over all units (what STA of the full
	// ALU, including the result mux, would report).
	for k := UnitKind(0); k < NumUnits; k++ {
		u := a.Units[k]
		arr := u.Netlist.STA(u.Netlist.DelaysAt(1))
		for i := 0; i < Width; i++ {
			if v := arr[u.Endpoint[i]]; v > a.worstEndpoint[i] {
				a.worstEndpoint[i] = v
			}
		}
		if u.HasFlag() {
			if v := arr[u.Flag]; v > a.worstEndpoint[FlagEndpoint] {
				a.worstEndpoint[FlagEndpoint] = v
			}
		}
	}
	return a
}

// WorstEndpointPsAt returns the per-endpoint static worst arrival at a
// global voltage-derived delay factor, recomputing STA with the per-gate
// sensitivities (the paper's model B obtains these from STA runs at each
// operating condition available in the design kit).
func (a *ALU) WorstEndpointPsAt(factor float64) [NumEndpoints]float64 {
	var worst [NumEndpoints]float64
	for k := UnitKind(0); k < NumUnits; k++ {
		u := a.Units[k]
		arr := u.Netlist.STA(u.Netlist.DelaysAt(factor))
		for i := 0; i < Width; i++ {
			if v := arr[u.Endpoint[i]]; v > worst[i] {
				worst[i] = v
			}
		}
		if u.HasFlag() {
			if v := arr[u.Flag]; v > worst[FlagEndpoint] {
				worst[FlagEndpoint] = v
			}
		}
	}
	return worst
}

// STALimitMHz returns the static-timing frequency limit at the reference
// voltage, which equals the configured sign-off clock by construction.
func (a *ALU) STALimitMHz() float64 {
	worst := 0.0
	for _, w := range a.worstEndpoint {
		if w > worst {
			worst = w
		}
	}
	return FreqMHz(worst + a.Config.SetupPs)
}

// PeriodPs converts a frequency in MHz to a period in picoseconds.
func PeriodPs(fMHz float64) float64 { return 1e6 / fMHz }

// FreqMHz converts a period in picoseconds to a frequency in MHz.
func FreqMHz(periodPs float64) float64 { return 1e6 / periodPs }

// buildUnit constructs one raw (uncalibrated) unit netlist.
func buildUnit(k UnitKind, dm *gates.DelayModel, group int) *Unit {
	b := gates.NewBuilder(dm)
	var ain, bin [Width]int32
	for i := range ain {
		ain[i] = b.Input()
	}
	for i := range bin {
		bin[i] = b.Input()
	}
	u := &Unit{Kind: k, Flag: -1}

	var res [Width]int32
	switch k {
	case UnitAdd:
		sum, _, _ := buildAdder(b, ain[:], bin[:], b.Const(false), group, false)
		copy(res[:], sum)
	case UnitSub:
		sum, _, _ := buildAdder(b, ain[:], bin[:], b.Const(true), group, true)
		copy(res[:], sum)
	case UnitCompare:
		sum, c31, c32 := buildAdder(b, ain[:], bin[:], b.Const(true), group, true)
		copy(res[:], sum)
		u.Flag = buildFlag(b, sum, c31, c32)
	case UnitMul:
		copy(res[:], buildMul(b, ain[:], bin[:], group))
	case UnitSll, UnitSrl, UnitSra:
		copy(res[:], buildShift(b, k, ain[:], bin[:]))
	case UnitAnd, UnitOr, UnitXor:
		for i := 0; i < Width; i++ {
			switch k {
			case UnitAnd:
				res[i] = b.And(ain[i], bin[i])
			case UnitOr:
				res[i] = b.Or(ain[i], bin[i])
			default:
				res[i] = b.Xor(ain[i], bin[i])
			}
		}
	}

	// Route every result bit through the two levels of the 4:1 result
	// mux in front of the endpoint flops. The mux selects are static
	// per instruction, so only the selected unit's transitions pass.
	sel := b.Const(true)
	zero := b.Const(false)
	for i := 0; i < Width; i++ {
		m1 := b.Mux(sel, zero, res[i])
		m2 := b.Mux(sel, zero, m1)
		u.Endpoint[i] = m2
		b.Output(fmt.Sprintf("r%d", i), m2)
	}
	if u.Flag >= 0 {
		// The flag flop sits behind its own condition-select mux.
		f := b.Mux(sel, zero, u.Flag)
		u.Flag = f
		b.Output("flag", f)
	}
	u.Netlist = b.Build()
	return u
}

// buildAdder constructs a carry-select adder with ripple groups: each
// group computes both conditional sums (carry-in 0 and 1) and the actual
// group carry selects between them. Unlike a carry-skip structure, every
// topological path here is a true path (the in-group ripple chains are
// excitable by the right operand pattern), so the static worst path that
// the unit is calibrated against can actually be approached by dynamic
// timing analysis — the property the whole over-scaling analysis rests on.
//
// When invertB is set the b operand is complemented (subtract mode; pass
// cin = 1). It returns the sum bits plus the selected carry into and out
// of the MSB, which the flag logic consumes.
func buildAdder(b *gates.Builder, a, bIn []int32, cin int32, group int, invertB bool) (sum []int32, c31, c32 int32) {
	n := len(a)
	sum = make([]int32, n)
	p := make([]int32, n)
	g := make([]int32, n)
	for i := 0; i < n; i++ {
		bi := bIn[i]
		if invertB {
			bi = b.Not(bi)
		}
		p[i] = b.Xor(a[i], bi)
		g[i] = b.And(a[i], bi)
	}
	// ripple produces the conditional sums and carries of one group for
	// a constant carry-in.
	ripple := func(lo, hi int, c int32) (s []int32, carries []int32) {
		for i := lo; i < hi; i++ {
			s = append(s, b.Xor(p[i], c))
			c = b.Or(g[i], b.And(p[i], c))
			carries = append(carries, c)
		}
		return s, carries
	}
	carryIn := cin
	for lo := 0; lo < n; lo += group {
		hi := lo + group
		if hi > n {
			hi = n
		}
		s0, c0 := ripple(lo, hi, b.Const(false))
		s1, c1 := ripple(lo, hi, b.Const(true))
		for i := lo; i < hi; i++ {
			sum[i] = b.Mux(carryIn, s0[i-lo], s1[i-lo])
			if i == n-2 {
				c31 = b.Mux(carryIn, c0[i-lo], c1[i-lo])
			}
			if i == n-1 {
				c32 = b.Mux(carryIn, c0[i-lo], c1[i-lo])
			}
		}
		carryIn = b.Mux(carryIn, c0[len(c0)-1], c1[len(c1)-1])
	}
	if c31 == 0 || c32 == 0 {
		panic("circuit: adder width too small for flag carries")
	}
	return sum, c31, c32
}

// buildFlag derives the comparison flag from the subtract result. The
// condition mux is wired to the signed-less-than branch (sign XOR
// overflow), which both toggles with realistic frequency (unlike the
// zero-detect OR tree, whose output saturates at "not zero" for random
// operands and therefore almost never transitions late) and depends on
// the latest carries of the subtract. All l.sf* instructions share this
// flag timing cone; the architectural condition is still evaluated
// exactly by the ISS.
func buildFlag(b *gates.Builder, sum []int32, c31, c32 int32) int32 {
	zero := b.Not(orTree(b, sum))
	v := b.Xor(c31, c32)             // signed overflow
	lts := b.Xor(sum[len(sum)-1], v) // a < b signed
	ltu := b.Not(c32)                // a < b unsigned (borrow)
	selLow := b.Const(true)          // select the lts branch ...
	selHigh := b.Const(false)        // ... through both mux levels
	m := b.Mux(selLow, zero, lts)
	f := b.Mux(selHigh, m, ltu)
	// The flag leaves the ALU and crosses the data path to the status
	// register; model the repeatered distribution wire as a buffer
	// chain. Because this segment is constant and always excited, it
	// pulls the flag endpoint's dynamic arrivals toward its static
	// limit, making compares the first instructions to fail in
	// control-heavy kernels (the paper's median PoFF behaviour).
	for i := 0; i < flagWireBufs; i++ {
		f = b.Buf(f)
	}
	return f
}

// flagWireBufs is the repeater count of the flag distribution wire.
const flagWireBufs = 22

func orTree(b *gates.Builder, xs []int32) int32 {
	switch len(xs) {
	case 0:
		return b.Const(false)
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return b.Or(orTree(b, xs[:mid]), orTree(b, xs[mid:]))
}

// buildMul constructs the low half of a 32x32 multiplier: an AND array of
// partial products, carry-save reduction with full/half adders, and a
// carry-skip final adder. Only columns 0..31 are generated since l.mul
// returns the low 32 bits.
func buildMul(b *gates.Builder, a, bIn []int32, group int) []int32 {
	n := len(a)
	cols := make([][]int32, n)
	for j := 0; j < n; j++ {
		for i := 0; i+j < n; i++ {
			cols[i+j] = append(cols[i+j], b.And(a[i], bIn[j]))
		}
	}
	// Carry-save reduction until every column holds at most two bits.
	for {
		done := true
		for _, c := range cols {
			if len(c) > 2 {
				done = false
				break
			}
		}
		if done {
			break
		}
		next := make([][]int32, n)
		for k := 0; k < n; k++ {
			c := cols[k]
			for len(c) >= 3 {
				x, y, z := c[0], c[1], c[2]
				c = c[3:]
				next[k] = append(next[k], b.Xor3(x, y, z))
				if k+1 < n {
					next[k+1] = append(next[k+1], b.Maj3(x, y, z))
				}
			}
			if len(c) == 2 {
				x, y := c[0], c[1]
				next[k] = append(next[k], b.Xor(x, y))
				if k+1 < n {
					next[k+1] = append(next[k+1], b.And(x, y))
				}
				c = nil
			}
			next[k] = append(next[k], c...)
		}
		cols = next
	}
	// Final carry-propagate add of the two remaining rows.
	xs := make([]int32, n)
	ys := make([]int32, n)
	zero := b.Const(false)
	for k := 0; k < n; k++ {
		xs[k], ys[k] = zero, zero
		if len(cols[k]) > 0 {
			xs[k] = cols[k][0]
		}
		if len(cols[k]) > 1 {
			ys[k] = cols[k][1]
		}
	}
	sum, _, _ := buildAdder(b, xs, ys, b.Const(false), group, false)
	return sum
}

// buildShift constructs a five-stage logarithmic barrel shifter. The
// shift amount is b[4:0]; higher b bits are ignored as the ISA masks the
// amount to five bits.
func buildShift(b *gates.Builder, k UnitKind, a, bIn []int32) []int32 {
	n := len(a)
	stages := 0
	for 1<<stages < n {
		stages++
	}
	cur := make([]int32, n)
	copy(cur, a)
	var fill int32
	if k == UnitSra {
		fill = a[n-1]
	} else {
		fill = b.Const(false)
	}
	for s := 0; s < stages; s++ {
		sh := 1 << s
		next := make([]int32, n)
		for i := 0; i < n; i++ {
			var shifted int32
			if k == UnitSll {
				if i-sh >= 0 {
					shifted = cur[i-sh]
				} else {
					shifted = fill
				}
			} else {
				if i+sh < n {
					shifted = cur[i+sh]
				} else {
					shifted = fill
				}
			}
			next[i] = b.Mux(bIn[s], cur[i], shifted)
		}
		cur = next
	}
	return cur
}
