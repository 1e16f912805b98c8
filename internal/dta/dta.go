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
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/isa"
	"repro/internal/memo"
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

// GenNames returns the registered generator names, sorted, so CLI help
// text and docs render identically across runs (map iteration order
// would reshuffle them).
func GenNames() []string {
	out := make([]string, 0, len(gens))
	for n := range gens {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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

// Characterization holds the DTA result for one key at one voltage: the
// raw arrival matrix and the per-endpoint CDFs. Endpoint indices 0..31
// are the result bits; circuit.FlagEndpoint is the flag (compare unit
// only).
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
	// CDFs[e] is the empirical violation CDF of endpoint e (includes
	// the voltage-scaled setup time).
	CDFs []*timing.CDF
	// SetupPs is the voltage-scaled flip-flop setup time.
	SetupPs float64
	// MaxPs is the largest arrival observed anywhere.
	MaxPs float64

	grid struct {
		once sync.Once
		g    *ViolationGrid
	}
}

// NumEndpoints returns the endpoint count (32, or 33 with flag).
func (c *Characterization) NumEndpoints() int { return len(c.Arrivals) }

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
// the characterization's key and voltage. It is immutable once built.
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
}

// Row returns grid index i's violation probabilities, one per active
// endpoint in Active order.
func (g *ViolationGrid) Row(i int) []float64 {
	na := len(g.Active)
	return g.Rows[i*na : (i+1)*na : (i+1)*na]
}

// Grid returns the characterization's violation grid, building it on
// first use. It is safe for concurrent use.
func (c *Characterization) Grid() *ViolationGrid {
	c.grid.once.Do(func() { c.grid.g = newViolationGrid(c) })
	return c.grid.g
}

func newViolationGrid(c *Characterization) *ViolationGrid {
	g := &ViolationGrid{MaxPs: c.MaxPs + c.SetupPs, StepPs: 1}
	// Violation probabilities fall with the period, so an endpoint
	// violates somewhere on the grid exactly when it does at period 0.
	for e, cdf := range c.CDFs {
		if cdf.ViolationProb(0) > 0 {
			g.Active = append(g.Active, e)
		}
	}
	n := int(math.Ceil(g.MaxPs/g.StepPs)) + 2
	g.PNone = make([]float64, n)
	g.Rows = make([]float64, 0, n*len(g.Active))
	for i := range g.PNone {
		period := float64(i) * g.StepPs
		pN := 1.0 // inactive endpoints contribute exact factors of 1
		for _, e := range g.Active {
			p := c.CDFs[e].ViolationProb(period)
			g.Rows = append(g.Rows, p)
			pN *= 1 - p
		}
		g.PNone[i] = pN
	}
	return g
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

// Characterizer runs and caches DTA characterizations for one ALU.
// Beyond the in-memory cache, an attached artifact.Store persists
// characterizations across processes: At consults the store before
// simulating, so a warm cache directory turns the most expensive phase
// of a cold run into a file read.
type Characterizer struct {
	ALU   *circuit.ALU
	Model timing.VddDelay
	Cfg   Config

	cache memo.Map[cacheKey, *Characterization]
	store *artifact.Store

	computed atomic.Int64 // characterizations actually simulated
	loaded   atomic.Int64 // characterizations served from the store
}

type cacheKey struct {
	key Key
	mV  int // voltage in millivolts
}

// NewCharacterizer returns a characterizer over the given ALU.
func NewCharacterizer(alu *circuit.ALU, model timing.VddDelay, cfg Config) *Characterizer {
	if cfg.Cycles <= 0 {
		cfg.Cycles = DefaultConfig().Cycles
	}
	return &Characterizer{ALU: alu, Model: model, Cfg: cfg}
}

// SetStore attaches a persistent artifact store. Must be called before
// the first At (i.e. right after construction); characterizations are
// then loaded from the store when present and saved to it when computed.
func (c *Characterizer) SetStore(st *artifact.Store) { c.store = st }

// ComputedCount reports how many characterizations this characterizer
// actually simulated (as opposed to serving from memory or the store) —
// the warm-start assertion of the artifact cache.
func (c *Characterizer) ComputedCount() int64 { return c.computed.Load() }

// LoadedCount reports how many characterizations were served from the
// attached artifact store.
func (c *Characterizer) LoadedCount() int64 { return c.loaded.Load() }

// At returns the characterization for a key at the given supply voltage,
// computing it on first use. It is safe for concurrent use and distinct
// keys characterize in parallel.
func (c *Characterizer) At(key Key, voltage float64) (*Characterization, error) {
	if _, err := Gen(key.Gen); err != nil {
		return nil, err
	}
	ck := cacheKey{key: key, mV: int(math.Round(voltage * 1000))}
	return c.cache.Get(ck, func() (*Characterization, error) {
		if ch, ok := c.load(key, voltage); ok {
			c.loaded.Add(1)
			return ch, nil
		}
		ch := c.run(key, voltage, runtime.GOMAXPROCS(0))
		c.computed.Add(1)
		c.save(ch)
		return ch, nil
	})
}

// storeKey spells out every input a characterization depends on: the
// netlist generation config (gate delays, process-variation seed,
// calibration), the Vdd-delay model, the characterization config
// (cycles, operand seed), and the (unit, generator, voltage) coordinate
// itself. Map-valued fields print in sorted key order, so the string is
// canonical.
func (c *Characterizer) storeKey(key Key, voltage float64) string {
	return fmt.Sprintf("circuit=%+v|vdd=%+v|dta=%+v|unit=%d|gen=%s|mV=%d",
		c.ALU.Config, c.Model, c.Cfg, key.Unit, key.Gen,
		int(math.Round(voltage*1000)))
}

// charWire is the persisted form of a Characterization: the raw arrival
// matrix and scalars. CDFs are rebuilt from the arrivals on load (NewCDF
// is deterministic), so the decoded characterization is bit-identical to
// the computed one.
type charWire struct {
	Unit        int
	Gen         string
	Voltage     float64
	Cycles      int
	Arrivals    [][]float64
	MaxPerCycle []float64
	SetupPs     float64
	MaxPs       float64
}

// load fetches a characterization from the attached store. Any failure —
// miss, torn blob, version mismatch — falls back to computing; the
// store is an accelerator, never a correctness dependency.
func (c *Characterizer) load(key Key, voltage float64) (*Characterization, bool) {
	if c.store == nil {
		return nil, false
	}
	payload, ok, _ := c.store.Get(artifact.KindCharacterization, c.storeKey(key, voltage))
	if !ok {
		return nil, false
	}
	var w charWire
	if err := artifact.DecodeGob(payload, &w); err != nil || !c.fits(&w, key, voltage) {
		return nil, false
	}
	ch := &Characterization{
		Key:         Key{Unit: circuit.UnitKind(w.Unit), Gen: w.Gen},
		Voltage:     w.Voltage,
		Cycles:      w.Cycles,
		Arrivals:    w.Arrivals,
		MaxPerCycle: w.MaxPerCycle,
		SetupPs:     w.SetupPs,
		MaxPs:       w.MaxPs,
	}
	ch.CDFs = make([]*timing.CDF, len(w.Arrivals))
	for e := range ch.CDFs {
		ch.CDFs[e] = timing.NewCDF(w.Arrivals[e], w.SetupPs)
	}
	return ch, true
}

// fits reports whether a decoded blob has exactly the shape a
// characterization of key at voltage under c's config has: the right
// coordinate and cycle count, one full row per endpoint of the unit, and
// a MaxPs that is the maximum of MaxPerCycle. A blob that decodes but
// does not fit is a miss, never a wrong answer.
func (c *Characterizer) fits(w *charWire, key Key, voltage float64) bool {
	mV := int(math.Round(voltage * 1000))
	if circuit.UnitKind(w.Unit) != key.Unit || w.Gen != key.Gen ||
		int(math.Round(w.Voltage*1000)) != mV || w.Cycles != c.Cfg.Cycles ||
		len(w.Arrivals) != numEndpoints(c.ALU.Units[key.Unit]) ||
		len(w.MaxPerCycle) != w.Cycles {
		return false
	}
	for _, row := range w.Arrivals {
		if len(row) != w.Cycles {
			return false
		}
	}
	maxPs := 0.0
	for _, v := range w.MaxPerCycle {
		maxPs = max(maxPs, v)
	}
	return w.MaxPs == maxPs
}

// save persists a freshly computed characterization; write failures are
// ignored (the run already has its in-memory result).
func (c *Characterizer) save(ch *Characterization) {
	if c.store == nil {
		return
	}
	payload, err := artifact.EncodeGob(charWire{
		Unit:        int(ch.Key.Unit),
		Gen:         ch.Key.Gen,
		Voltage:     ch.Voltage,
		Cycles:      ch.Cycles,
		Arrivals:    ch.Arrivals,
		MaxPerCycle: ch.MaxPerCycle,
		SetupPs:     ch.SetupPs,
		MaxPs:       ch.MaxPs,
	})
	if err != nil {
		return
	}
	_ = c.store.Put(artifact.KindCharacterization, c.storeKey(ch.Key, ch.Voltage), payload)
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

	ch := &Characterization{
		Key:         key,
		Voltage:     voltage,
		Cycles:      cycles,
		Arrivals:    make([][]float64, numEndpoints(u)),
		MaxPerCycle: make([]float64, cycles),
		SetupPs:     c.ALU.Config.SetupPs * factor,
	}
	for e := range ch.Arrivals {
		ch.Arrivals[e] = make([]float64, cycles)
	}

	// Seed depends on the key and voltage so characterizations are
	// independent but reproducible. Operand pair 0 is the settled
	// state; pair c+1 is applied in cycle c.
	seed := c.Cfg.Seed
	seed = stats.SubSeed(seed, int(key.Unit)*1000+ck32(key.Gen))
	seed = stats.SubSeed(seed, int(math.Round(voltage*1000)))
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
	ch.CDFs = make([]*timing.CDF, len(ch.Arrivals))
	for e := range ch.CDFs {
		ch.CDFs[e] = timing.NewCDF(ch.Arrivals[e], ch.SetupPs)
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
// at the given voltage, in parallel. Calling it up front keeps the
// Monte-Carlo hot path free of characterization stalls.
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
