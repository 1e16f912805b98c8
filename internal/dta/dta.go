// Package dta implements dynamic timing analysis: timed gate-level
// simulation of the ALU unit netlists over randomized characterization
// kernels, recording the per-cycle arrival times at every endpoint
// conditioned on the executing instruction, exactly as the paper extracts
// its statistics from the post place & route netlist (Sec. 3.4; the
// methodology of [14]).
//
// A characterization is keyed by (ALU unit, operand generator, supply
// voltage). Operand generators capture the operand profile of an
// instruction: l.addi sees sign-extended 16-bit immediates, shift amounts
// are 5 bits, and data-width-constrained workloads (the paper's 8/16-bit
// kernels in Figs. 4 and 6) are characterized with matching operand
// ranges — this is where the paper's data-width effects come from.
//
// In the dependency graph, dta sits on circuit/gates/timing below and
// serves the model-C construction in fi/core above; characterizations
// persist through internal/artifact when a store is attached.
package dta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/timing"
)

// OperandGen produces one random operand pair for a characterization
// cycle.
type OperandGen func(rng *rand.Rand) (a, b uint32)

// Named operand generators. Names are part of characterization cache keys
// and of benchmark operand profiles.
var gens = map[string]OperandGen{
	"u32": func(r *rand.Rand) (uint32, uint32) { return r.Uint32(), r.Uint32() },
	"u16": func(r *rand.Rand) (uint32, uint32) { return r.Uint32() & 0xFFFF, r.Uint32() & 0xFFFF },
	"u8":  func(r *rand.Rand) (uint32, uint32) { return r.Uint32() & 0xFF, r.Uint32() & 0xFF },
	// a full-width, b a sign-extended 16-bit immediate (l.addi, l.muli,
	// l.xori and the compare-immediate forms).
	"imm16": func(r *rand.Rand) (uint32, uint32) {
		return r.Uint32(), uint32(int32(int16(uint16(r.Uint32()))))
	},
	// a full-width, b a zero-extended 16-bit immediate (l.andi, l.ori).
	"zimm16": func(r *rand.Rand) (uint32, uint32) { return r.Uint32(), r.Uint32() & 0xFFFF },
	// a full-width, b a 5-bit shift amount.
	"amt5": func(r *rand.Rand) (uint32, uint32) { return r.Uint32(), r.Uint32() & 31 },
	// 16-bit a and b with small signed values, the profile of
	// index/counter arithmetic in control kernels.
	"s16": func(r *rand.Rand) (uint32, uint32) {
		return uint32(int32(int16(uint16(r.Uint32())))), uint32(int32(int16(uint16(r.Uint32()))))
	},
}

// Gen returns a registered generator.
func Gen(name string) (OperandGen, error) {
	g, ok := gens[name]
	if !ok {
		return nil, fmt.Errorf("dta: unknown operand generator %q", name)
	}
	return g, nil
}

// Profile overrides the operand generator per ALU unit; nil entries (or a
// nil map) fall back to the per-instruction defaults. Benchmarks with
// constrained data widths carry a Profile so that their fault statistics
// are characterized on matching operands.
type Profile map[circuit.UnitKind]string

// DefaultGen returns the default operand generator name for an ALU op,
// reflecting its architectural operand sources.
func DefaultGen(op isa.Op) string {
	switch op {
	case isa.OpAddi, isa.OpMuli, isa.OpXori,
		isa.OpSfeqi, isa.OpSfnei, isa.OpSfgtui, isa.OpSfltui,
		isa.OpSfgtsi, isa.OpSfltsi:
		return "imm16"
	case isa.OpAndi, isa.OpOri:
		return "zimm16"
	case isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlli, isa.OpSrli, isa.OpSrai:
		return "amt5"
	default:
		return "u32"
	}
}

// GenFor resolves the operand generator name for op under a profile.
func GenFor(op isa.Op, p Profile) string {
	if p != nil {
		if g, ok := p[circuit.UnitOf(op)]; ok && g != "" {
			return g
		}
	}
	return DefaultGen(op)
}

// Key identifies one characterization.
type Key struct {
	Unit circuit.UnitKind
	Gen  string
}

// KeyFor returns the characterization key of an ALU op under a profile.
func KeyFor(op isa.Op, p Profile) Key {
	return Key{Unit: circuit.UnitOf(op), Gen: GenFor(op, p)}
}

// Characterization holds the DTA result for one key at one voltage:
// the raw arrival matrix. Endpoint indices 0..31 are the result bits;
// circuit.FlagEndpoint is the flag (compare unit only).
type Characterization struct {
	Key     Key
	Voltage float64
	Cycles  int
	// Arrivals[e][c] is the arrival time (ps) of endpoint e in cycle c;
	// 0 means the endpoint did not toggle.
	Arrivals [][]float64
	// MaxPerCycle[c] is the largest arrival over all endpoints in cycle
	// c, used by the joint (bootstrap) sampler.
	MaxPerCycle []float64
	// SetupPs is the voltage-scaled flip-flop setup time.
	SetupPs float64
	// MaxPs is the largest arrival observed anywhere.
	MaxPs float64
}

// newCharacterization allocates a characterization whose arrival rows
// and MaxPerCycle are consecutive windows, in that order, of one backing
// array, which it returns too.
func newCharacterization(key Key, voltage float64, cycles, endpoints int) (*Characterization, []float64) {
	back := make([]float64, (endpoints+1)*cycles)
	ch := &Characterization{
		Key:         key,
		Voltage:     voltage,
		Cycles:      cycles,
		Arrivals:    make([][]float64, endpoints),
		MaxPerCycle: back[endpoints*cycles:],
	}
	for e := range ch.Arrivals {
		ch.Arrivals[e] = back[e*cycles : (e+1)*cycles : (e+1)*cycles]
	}
	return ch, back
}

// NumEndpoints returns the endpoint count (32, or 33 with flag).
func (c *Characterization) NumEndpoints() int { return len(c.Arrivals) }

// CDF builds endpoint e's empirical violation CDF (setup time included).
// Each call sorts a copy of the endpoint's arrivals; the injectors read
// the violation grid instead.
func (c *Characterization) CDF(e int) *timing.CDF {
	return timing.NewCDF(c.Arrivals[e], c.SetupPs)
}

// OnsetMHz returns the highest frequency with zero violation probability
// across all endpoints at this voltage (no noise).
func (c *Characterization) OnsetMHz() float64 {
	if c.MaxPs <= 0 {
		return math.Inf(1)
	}
	return 1e6 / (c.MaxPs + c.SetupPs)
}

// ViolationGrid tabulates a characterization's per-endpoint violation
// probabilities over the effective clock period at 1 ps resolution: the
// lookup table of model C's per-cycle injector and of its hazard math.
// It depends on the characterization alone, so one grid serves every
// model-C operating point (frequency, noise, semantics, sampling) at
// the characterization's key and voltage. It is immutable once built;
// Characterizer.GridAt builds, loads and shares it.
type ViolationGrid struct {
	// StepPs is the grid resolution; grid index i is the effective
	// period i*StepPs.
	StepPs float64
	// MaxPs is the effective period at and beyond which nothing
	// violates: the largest arrival plus setup.
	MaxPs float64
	// Active lists, ascending, the endpoints whose violation
	// probability is nonzero somewhere on the grid; the others never
	// violate and have no column.
	Active []int
	// PNone[i] is the probability that no endpoint violates at grid
	// index i.
	PNone []float64
	// Rows is row-major over (grid index, active endpoint):
	// Rows[i*len(Active)+k] is the violation probability of Active[k]
	// at grid index i, so one query reads one contiguous row.
	Rows []float64

	// cycles is the characterization's cycle count, the denominator of
	// every probability: Rows[j]*cycles is Rows[j]'s violation count,
	// which is what the store persists.
	cycles int
}

// Row returns grid index i's violation probabilities, one per active
// endpoint in Active order.
func (g *ViolationGrid) Row(i int) []float64 {
	na := len(g.Active)
	return g.Rows[i*na : (i+1)*na : (i+1)*na]
}

// gridStepPs is the resolution of every violation grid.
const gridStepPs = 1.0

// newViolationGrid counts the grid from the arrivals, without sorting.
// An arrival a violates at grid index i exactly when
// a > float64(i)*StepPs - SetupPs, the comparison timing.CDF's
// ViolationProb makes; the right-hand side never falls as i grows, so
// a violates on a prefix [0, k) of the grid. Histogramming each
// arrival's k and taking suffix sums gives every index's violation
// count, and finish turns count/cycles into bit-for-bit the CDF's
// probability.
func newViolationGrid(c *Characterization) *ViolationGrid {
	const step = gridStepPs
	setup := c.SetupPs
	g := &ViolationGrid{MaxPs: c.MaxPs + setup, StepPs: step, cycles: c.Cycles}
	n := int(math.Ceil(g.MaxPs/step)) + 2
	last := float64(n-1)*step - setup

	// An endpoint is active when it violates at index 0, since
	// violation counts only fall as the period grows.
	for e, row := range c.Arrivals {
		if slices.ContainsFunc(row, func(a float64) bool { return a > -setup }) {
			g.Active = append(g.Active, e)
		}
	}
	na := len(g.Active)
	counts := make([]uint32, n*na)
	hist := make([]int, n+1)
	for j, e := range g.Active {
		row := c.Arrivals[e]
		clear(hist)
		for _, a := range row {
			// k is the length of the prefix of grid indices at which a
			// violates: 0 when it never does (NaN and -Inf included), n
			// when it does everywhere (+Inf included).
			k := 0
			if a > last {
				k = n
			} else if a > -setup {
				// ceil((a+setup)/step) is the boundary up to the
				// rounding of the subtraction below; step to the exact
				// one.
				k = min(max(int(math.Ceil((a+setup)/step)), 1), n-1)
				for !(a > float64(k-1)*step-setup) {
					k--
				}
				for a > float64(k)*step-setup {
					k++
				}
			}
			hist[k]++
		}
		count := 0
		for i := n - 1; i >= 0; i-- {
			count += hist[i+1]
			counts[i*na+j] = uint32(count)
		}
	}
	g.finish(counts, n)
	return g
}

// finish fills a grid of n points from its violation counts, in Rows
// order: every probability as its count over the cycles, and PNone as
// the product of the complements along each row. The builder and the
// store decode both end here, so a loaded grid is bit-identical to a
// built one by construction.
func (g *ViolationGrid) finish(counts []uint32, n int) {
	g.Rows = make([]float64, len(counts))
	for j, count := range counts {
		g.Rows[j] = float64(count) / float64(g.cycles)
	}
	g.PNone = make([]float64, n)
	for i := range g.PNone {
		pN := 1.0 // inactive endpoints contribute exact factors of 1
		for _, p := range g.Row(i) {
			pN *= 1 - p
		}
		g.PNone[i] = pN
	}
}

// gridMagic prefixes a persisted violation grid.
const gridMagic = "FGRD1"

// maxGridPoints bounds the grid length a decode accepts: a microsecond
// of effective period at 1 ps. A longer grid (a supply a few millivolts
// above threshold) is always rebuilt rather than loaded.
const maxGridPoints = 1 << 20

// encodeViolationGrid lays a grid out flat, little-endian: the magic,
// the cycle, grid point and active endpoint counts (uint32), StepPs and
// MaxPs (float64 bits), the active endpoints (uint32 each), then the
// violation counts (uint32 each) in Rows order. Rows and PNone are not
// stored; finish derives them. Each count is recovered from its
// probability by rounding: p = fl(count/cycles) is within a relative
// 2^-53 of the quotient, so p*cycles lies within far less than 0.5 of
// the count for any uint32 count.
func encodeViolationGrid(g *ViolationGrid) []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, len(gridMagic)+28+4*(len(g.Active)+len(g.Rows)))
	b = append(b, gridMagic...)
	b = le.AppendUint32(b, uint32(g.cycles))
	b = le.AppendUint32(b, uint32(len(g.PNone)))
	b = le.AppendUint32(b, uint32(len(g.Active)))
	b = artifact.AppendFloat64s(b, []float64{g.StepPs, g.MaxPs})
	for _, e := range g.Active {
		b = le.AppendUint32(b, uint32(e))
	}
	for _, p := range g.Rows {
		b = le.AppendUint32(b, uint32(math.Round(p*float64(g.cycles))))
	}
	return b
}

// decodeViolationGrid parses a blob written by encodeViolationGrid and
// finishes the grid. A blob is an error unless it is exactly a header,
// the active endpoints and one count per (grid point, active endpoint);
// its grid length is the one newViolationGrid gives MaxPs (at most
// maxGridPoints); Active is strictly ascending (gridDecoder bounds it
// by the unit's endpoints); and every count is at most the cycles,
// never rises along the grid, and is nonzero at grid index 0 (an
// endpoint that never violates is not active).
func decodeViolationGrid(b []byte) (*ViolationGrid, error) {
	le := binary.LittleEndian
	rest, ok := bytes.CutPrefix(b, []byte(gridMagic))
	if !ok {
		return nil, errors.New("dta: not a violation grid")
	}
	if len(rest) < 28 {
		return nil, errors.New("dta: truncated violation grid header")
	}
	cycles, points, active := le.Uint32(rest), le.Uint32(rest[4:]), le.Uint32(rest[8:])
	var scalars [2]float64 // StepPs, MaxPs
	artifact.ReadFloat64s(scalars[:], rest[12:])
	rest = rest[28:]
	if active > circuit.NumEndpoints || points > maxGridPoints || uint64(len(rest)) != 4*uint64(active)*(1+uint64(points)) {
		return nil, fmt.Errorf("dta: %d bytes for %d active endpoints × %d grid points", len(rest), active, points)
	}
	n, na := int(points), int(active)
	step, maxPs := scalars[0], scalars[1]
	if !(step > 0) || math.Ceil(maxPs/step)+2 != float64(n) {
		return nil, fmt.Errorf("dta: %d grid points for MaxPs %v at step %v", n, maxPs, step)
	}
	g := &ViolationGrid{StepPs: step, MaxPs: maxPs, cycles: int(cycles), Active: make([]int, na)}
	for k := range g.Active {
		g.Active[k] = int(le.Uint32(rest[4*k:]))
		if k > 0 && g.Active[k] <= g.Active[k-1] {
			return nil, fmt.Errorf("dta: active endpoints %v not ascending", g.Active[:k+1])
		}
	}
	rest = rest[4*na:]
	counts := make([]uint32, n*na)
	for j := range counts {
		count := le.Uint32(rest[4*j:])
		switch {
		case count > cycles:
			return nil, fmt.Errorf("dta: %d violating cycles of %d", count, cycles)
		case j < na && count == 0:
			return nil, fmt.Errorf("dta: active endpoint %d never violates", g.Active[j])
		case j >= na && count > counts[j-na]:
			return nil, errors.New("dta: violation count rises along the grid")
		}
		counts[j] = count
	}
	g.finish(counts, n)
	return g, nil
}

// Config parameterizes a Characterizer.
type Config struct {
	// Cycles is the characterization kernel length per instruction; the
	// paper uses 8 kCycles.
	Cycles int
	// Seed drives operand randomization.
	Seed int64
}

// DefaultConfig returns the paper's characterization parameters.
func DefaultConfig() Config { return Config{Cycles: 8192, Seed: 1} }

// Characterizer runs DTA characterizations for one ALU and caches the
// violation grids model C reads off them. A raw characterization (a
// 2.2 MB arrival matrix at the paper's 8192 cycles) stays in memory
// only once At has returned it, for the callers that read arrivals:
// joint sampling, cmd/characterize, the experiments and Prewarm. A
// grid is counted from the matrix an At holds or is computing, and
// otherwise from one loaded or simulated for that count alone and then
// dropped; so a storeless At after GridAt of the same key simulates it
// again. Beyond memory, an attached artifact.Store persists both
// across processes: At and GridAt consult the store before computing,
// so a warm cache directory turns the most expensive phase of a cold
// run into a file read, and a warm model C reads only grids.
type Characterizer struct {
	ALU   *circuit.ALU
	Model timing.VddDelay
	Cfg   Config

	cache artifact.Cache[cacheKey, *Characterization]
	grids artifact.Cache[cacheKey, *ViolationGrid]
}

type cacheKey struct {
	key Key
	mV  int // voltage in millivolts
}

// millivolts is the supply coordinate of every cache and store key.
func millivolts(voltage float64) int { return int(math.Round(voltage * 1000)) }

// NewCharacterizer returns a characterizer over the given ALU.
func NewCharacterizer(alu *circuit.ALU, model timing.VddDelay, cfg Config) *Characterizer {
	if cfg.Cycles <= 0 {
		cfg.Cycles = DefaultConfig().Cycles
	}
	c := &Characterizer{ALU: alu, Model: model, Cfg: cfg}
	c.cache.Kind = artifact.KindCharacterization
	c.cache.Encode = func(ch *Characterization) ([]byte, error) { return encodeCharacterization(ch), nil }
	c.grids.Kind = artifact.KindViolationGrid
	c.grids.Encode = func(g *ViolationGrid) ([]byte, error) { return encodeViolationGrid(g), nil }
	return c
}

// SetStore attaches a persistent artifact store. Must be called before
// the first At or GridAt (i.e. right after construction);
// characterizations and grids are then loaded from the store when
// present and saved to it when computed.
func (c *Characterizer) SetStore(st *artifact.Store) { c.cache.Store, c.grids.Store = st, st }

// ComputedCount reports how many characterizations this characterizer
// actually simulated (as opposed to serving from memory or the store) —
// the warm-start assertion of the artifact cache. A key simulated for
// a grid and again for a later At counts twice.
func (c *Characterizer) ComputedCount() int64 { return c.cache.Built() }

// LoadedCount reports how many characterizations were served from the
// attached artifact store.
func (c *Characterizer) LoadedCount() int64 { return c.cache.Loaded() }

// GridsBuilt reports how many violation grids this characterizer
// counted from a characterization, loaded or simulated.
func (c *Characterizer) GridsBuilt() int64 { return c.grids.Built() }

// GridsLoaded reports how many violation grids were served from the
// attached artifact store.
func (c *Characterizer) GridsLoaded() int64 { return c.grids.Loaded() }

// At returns the characterization for a key at the given supply voltage,
// computing it on first use and keeping it for the characterizer's
// lifetime. It is safe for concurrent use and distinct keys
// characterize in parallel. The supply is rounded to the millivolt
// first: the memo key, the store key, the operand seed and the
// simulation all see the same voltage, so no answer depends on which
// nearby supply asked first.
func (c *Characterizer) At(key Key, voltage float64) (*Characterization, error) {
	if _, err := Gen(key.Gen); err != nil {
		return nil, err
	}
	mV := millivolts(voltage)
	storeKey, decode, run := c.source(key, mV)
	return c.cache.Get(cacheKey{key: key, mV: mV}, storeKey, decode, run)
}

// GridAt returns the violation grid of key at the given supply voltage
// (rounded to the millivolt, as At does), one per characterizer however
// many models and goroutines ask. A grid in the store is the answer
// without touching the characterization. Otherwise it is counted from
// the characterization an At holds or is computing, or else from one
// loaded from the store or simulated and saved, which nothing keeps;
// the grid is then saved.
func (c *Characterizer) GridAt(key Key, voltage float64) (*ViolationGrid, error) {
	if _, err := Gen(key.Gen); err != nil {
		return nil, err
	}
	mV := millivolts(voltage)
	v := float64(mV) / 1000
	k := cacheKey{key: key, mV: mV}
	return c.grids.Get(k,
		func() (string, error) { return c.gridStoreKey(key, v), nil },
		c.gridDecoder(key),
		func() (*ViolationGrid, error) {
			ch, ok := c.cache.Held(k)
			if !ok {
				var err error
				if ch, err = c.cache.LoadOrBuild(c.source(key, mV)); err != nil {
					return nil, err
				}
			}
			return newViolationGrid(ch), nil
		})
}

// source returns the store key, the store decode and the simulation of
// key's characterization at mV: At's memoized Get and GridAt's
// LoadOrBuild of the same value.
func (c *Characterizer) source(key Key, mV int) (func() (string, error), func([]byte) (*Characterization, bool), func() (*Characterization, error)) {
	v := float64(mV) / 1000
	return func() (string, error) { return c.storeKey(key, v), nil },
		c.decoder(key, v),
		func() (*Characterization, error) { return c.run(key, v, runtime.GOMAXPROCS(0)), nil }
}

// storeKey spells out every input a characterization depends on: the
// netlist generation config (gate delays, process-variation seed,
// calibration), the Vdd-delay model, the characterization config
// (cycles, operand seed), and the (unit, generator, voltage) coordinate
// itself. Map-valued fields print in sorted key order, so the string is
// canonical.
func (c *Characterizer) storeKey(key Key, voltage float64) string {
	return fmt.Sprintf("circuit=%+v|vdd=%+v|dta=%+v|unit=%d|gen=%s|mV=%d",
		c.ALU.Config, c.Model, c.Cfg, key.Unit, key.Gen, millivolts(voltage))
}

// gridStoreKey is the characterization's store key plus the grid step:
// a grid depends on nothing else.
func (c *Characterizer) gridStoreKey(key Key, voltage float64) string {
	return fmt.Sprintf("%s|stepPs=%g", c.storeKey(key, voltage), gridStepPs)
}

// charMagic prefixes a persisted characterization.
const charMagic = "FDTA1"

// encodeCharacterization lays a characterization out flat, integers and
// float64 bits little-endian: the magic, unit, generator name length
// and bytes, cycle and endpoint counts, voltage, SetupPs and MaxPs,
// then every arrival row in endpoint order and MaxPerCycle last.
func encodeCharacterization(ch *Characterization) []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, len(charMagic)+40+len(ch.Key.Gen)+8*(len(ch.Arrivals)+1)*ch.Cycles)
	b = append(b, charMagic...)
	b = le.AppendUint32(b, uint32(ch.Key.Unit))
	b = le.AppendUint32(b, uint32(len(ch.Key.Gen)))
	b = append(b, ch.Key.Gen...)
	b = le.AppendUint32(b, uint32(ch.Cycles))
	b = le.AppendUint32(b, uint32(len(ch.Arrivals)))
	b = artifact.AppendFloat64s(b, []float64{ch.Voltage, ch.SetupPs, ch.MaxPs})
	for _, row := range ch.Arrivals {
		b = artifact.AppendFloat64s(b, row)
	}
	return artifact.AppendFloat64s(b, ch.MaxPerCycle)
}

// decodeCharacterization parses a blob written by
// encodeCharacterization into one backing array. A blob that is not
// exactly one header plus (endpoints+1) rows of cycles values, or that
// names no ALU unit or more endpoints than a unit has, is an error.
func decodeCharacterization(b []byte) (*Characterization, error) {
	le := binary.LittleEndian
	rest, ok := bytes.CutPrefix(b, []byte(charMagic))
	if !ok {
		return nil, errors.New("dta: not a flat characterization")
	}
	if len(rest) < 8 {
		return nil, errors.New("dta: truncated characterization header")
	}
	unit, genLen := le.Uint32(rest), uint64(le.Uint32(rest[4:]))
	rest = rest[8:]
	if uint64(len(rest)) < genLen+32 {
		return nil, errors.New("dta: truncated characterization header")
	}
	gen := string(rest[:genLen])
	rest = rest[genLen:]
	cycles, endpoints := le.Uint32(rest), le.Uint32(rest[4:])
	var scalars [3]float64 // voltage, SetupPs, MaxPs
	artifact.ReadFloat64s(scalars[:], rest[8:])
	rest = rest[32:]
	if unit >= uint32(circuit.NumUnits) {
		return nil, fmt.Errorf("dta: unit %d out of range", unit)
	}
	if endpoints > circuit.NumEndpoints || uint64(len(rest)) != 8*(uint64(endpoints)+1)*uint64(cycles) {
		return nil, fmt.Errorf("dta: %d bytes of rows for %d endpoints × %d cycles", len(rest), endpoints, cycles)
	}
	ch, back := newCharacterization(Key{Unit: circuit.UnitKind(unit), Gen: gen}, scalars[0], int(cycles), int(endpoints))
	ch.SetupPs, ch.MaxPs = scalars[1], scalars[2]
	artifact.ReadFloat64s(back, rest)
	return ch, nil
}

// decoder returns the store decode of key at voltage: a payload that
// does not decode, or decodes to a characterization that does not fit,
// is a miss.
func (c *Characterizer) decoder(key Key, voltage float64) func([]byte) (*Characterization, bool) {
	return func(b []byte) (*Characterization, bool) {
		ch, err := decodeCharacterization(b)
		return ch, err == nil && c.fits(ch, key, voltage)
	}
}

// fits reports whether a decoded characterization has exactly the shape
// one of key at voltage under c's config has: the right coordinate and
// cycle count, one row per endpoint of the unit (the decoder makes every
// row and MaxPerCycle Cycles long), and a MaxPs that is the maximum of
// MaxPerCycle. A blob that decodes but does not fit is a miss, never a
// wrong answer.
func (c *Characterizer) fits(ch *Characterization, key Key, voltage float64) bool {
	if ch.Key != key || millivolts(ch.Voltage) != millivolts(voltage) ||
		ch.Cycles != c.Cfg.Cycles || len(ch.Arrivals) != numEndpoints(c.ALU.Units[key.Unit]) {
		return false
	}
	maxPs := 0.0
	for _, v := range ch.MaxPerCycle {
		maxPs = max(maxPs, v)
	}
	return ch.MaxPs == maxPs
}

// gridDecoder returns the store decode of key's violation grid: a
// payload that does not decode, or decodes to a grid another config or
// unit would count (cycles, step, an endpoint the unit lacks), is a
// miss.
func (c *Characterizer) gridDecoder(key Key) func([]byte) (*ViolationGrid, bool) {
	return func(b []byte) (*ViolationGrid, bool) {
		g, err := decodeViolationGrid(b)
		if err != nil || g.cycles != c.Cfg.Cycles || g.StepPs != gridStepPs {
			return nil, false
		}
		na := len(g.Active)
		return g, na == 0 || g.Active[na-1] < numEndpoints(c.ALU.Units[key.Unit])
	}
}

// ForOp resolves and characterizes the op's key under a profile.
func (c *Characterizer) ForOp(op isa.Op, p Profile, voltage float64) (*Characterization, error) {
	return c.At(KeyFor(op, p), voltage)
}

// run performs one characterization, its cycles split into contiguous
// shards simulated in parallel, one gates.Sim per shard.
//
// Sharding is exact: a timed Cycle leaves every node at the functional
// value of its inputs, so a cycle's arrivals depend only on its own
// operand pair and the one before it. A shard settles on the pair
// before its first cycle and reproduces the serial run's rows
// bit for bit, whatever the shard count.
func (c *Characterizer) run(key Key, voltage float64, shards int) *Characterization {
	gen := gens[key.Gen]
	u := c.ALU.Units[key.Unit]
	factor := c.Model.Factor(voltage)
	delays := u.Netlist.DelaysAt(factor)
	cycles := c.Cfg.Cycles

	ch, _ := newCharacterization(key, voltage, cycles, numEndpoints(u))
	ch.SetupPs = c.ALU.Config.SetupPs * factor

	// Seed depends on the key and voltage so characterizations are
	// independent but reproducible. Operand pair 0 is the settled
	// state; pair c+1 is applied in cycle c.
	seed := c.Cfg.Seed
	seed = stats.SubSeed(seed, int(key.Unit)*1000+ck32(key.Gen))
	seed = stats.SubSeed(seed, millivolts(voltage))
	rng := stats.NewRand(seed)
	ops := make([][2]uint32, cycles+1)
	for i := range ops {
		ops[i][0], ops[i][1] = gen(rng)
	}

	shards = max(1, min(shards, cycles))
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ch.simulate(u, delays, ops, lo, hi)
		}(s*cycles/shards, (s+1)*cycles/shards)
	}
	wg.Wait()

	for _, worst := range ch.MaxPerCycle {
		if worst > ch.MaxPs {
			ch.MaxPs = worst
		}
	}
	return ch
}

// simulate fills cycles [lo, hi) of ch's Arrivals and MaxPerCycle from
// the operand pairs ops on a Sim of its own.
func (ch *Characterization) simulate(u *circuit.Unit, delays []float64, ops [][2]uint32, lo, hi int) {
	sim := gates.NewSim(u.Netlist, delays)
	in := circuit.PackInputs(nil, ops[lo][0], ops[lo][1])
	sim.Settle(in)
	for cyc := lo; cyc < hi; cyc++ {
		sim.Cycle(circuit.PackInputs(in, ops[cyc+1][0], ops[cyc+1][1]))
		worst := 0.0
		for e, row := range ch.Arrivals {
			node := u.Flag
			if e < circuit.Width {
				node = u.Endpoint[e]
			}
			arr := sim.Arrival(node)
			row[cyc] = arr
			worst = max(worst, arr)
		}
		ch.MaxPerCycle[cyc] = worst
	}
}

// numEndpoints is a unit's endpoint count: the result bits, plus the
// flag when the unit drives it.
func numEndpoints(u *circuit.Unit) int {
	if u.HasFlag() {
		return circuit.NumEndpoints
	}
	return circuit.Width
}

// ck32 hashes a generator name into a small int for seed derivation.
func ck32(s string) int {
	h := 0
	for _, r := range s {
		h = h*131 + int(r)
	}
	return h & 0xFFFF
}

// Prewarm characterizes every (op, profile) key an ALU workload can hit
// at the given voltage, in parallel. Model C characterizes a key on its
// first query anyway; Prewarm front-loads all of them, for callers that
// want (or time) every key before the first trial.
func (c *Characterizer) Prewarm(profile Profile, voltage float64) error {
	keys := map[Key]bool{}
	for _, op := range isa.AllOps() {
		if !isa.IsALU(op) {
			continue
		}
		keys[KeyFor(op, profile)] = true
	}
	errc := make(chan error, len(keys))
	var wg sync.WaitGroup
	for k := range keys {
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			if _, err := c.At(k, voltage); err != nil {
				errc <- err
			}
		}(k)
	}
	wg.Wait()
	close(errc)
	return <-errc
}
