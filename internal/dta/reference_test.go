package dta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/stats"
	"repro/internal/timing"
)

// RunSharded runs one characterization with an explicit shard count,
// bypassing the cache and the store.
func (c *Characterizer) RunSharded(key Key, voltage float64, shards int) *Characterization {
	return c.run(key, voltage, shards)
}

// RunSerial is the reference characterization: one Sim walks every
// cycle in order, drawing each operand pair from the seeded stream just
// before it applies it. The sharded run must reproduce it bit for bit.
func (c *Characterizer) RunSerial(key Key, voltage float64) *Characterization {
	gen := gens[key.Gen]
	u := c.ALU.Units[key.Unit]
	factor := c.Model.Factor(voltage)
	delays := u.Netlist.DelaysAt(factor)
	sim := gates.NewSim(u.Netlist, delays)
	setup := c.ALU.Config.SetupPs * factor

	nEP := circuit.Width
	if u.HasFlag() {
		nEP = circuit.NumEndpoints
	}
	ch := &Characterization{
		Key:         key,
		Voltage:     voltage,
		Cycles:      c.Cfg.Cycles,
		Arrivals:    make([][]float64, nEP),
		MaxPerCycle: make([]float64, c.Cfg.Cycles),
		SetupPs:     setup,
	}
	for e := range ch.Arrivals {
		ch.Arrivals[e] = make([]float64, c.Cfg.Cycles)
	}

	seed := c.Cfg.Seed
	seed = stats.SubSeed(seed, int(key.Unit)*1000+ck32(key.Gen))
	seed = stats.SubSeed(seed, int(math.Round(voltage*1000)))
	rng := stats.NewRand(seed)

	in := circuit.PackInputs(nil, 0, 0)
	a0, b0 := gen(rng)
	sim.Settle(circuit.PackInputs(in, a0, b0))
	for cyc := 0; cyc < c.Cfg.Cycles; cyc++ {
		a, b := gen(rng)
		sim.Cycle(circuit.PackInputs(in, a, b))
		worst := 0.0
		for e := 0; e < circuit.Width; e++ {
			arr := sim.Arrival(u.Endpoint[e])
			ch.Arrivals[e][cyc] = arr
			if arr > worst {
				worst = arr
			}
		}
		if u.HasFlag() {
			arr := sim.Arrival(u.Flag)
			ch.Arrivals[circuit.FlagEndpoint][cyc] = arr
			if arr > worst {
				worst = arr
			}
		}
		ch.MaxPerCycle[cyc] = worst
		if worst > ch.MaxPs {
			ch.MaxPs = worst
		}
	}
	return ch
}

// refViolationGrid is the reference violation grid: every (grid index,
// endpoint) probability read off the endpoint's sorted CDF by binary
// search. The counting grid must reproduce it bit for bit.
func refViolationGrid(c *Characterization) *ViolationGrid {
	g := &ViolationGrid{MaxPs: c.MaxPs + c.SetupPs, StepPs: 1}
	cdfs := make([]*timing.CDF, len(c.Arrivals))
	for e := range cdfs {
		cdfs[e] = c.CDF(e)
		// Violation probabilities fall with the period, so an endpoint
		// violates somewhere on the grid exactly when it does at period 0.
		if cdfs[e].ViolationProb(0) > 0 {
			g.Active = append(g.Active, e)
		}
	}
	n := int(math.Ceil(g.MaxPs/g.StepPs)) + 2
	g.PNone = make([]float64, n)
	g.Rows = make([]float64, 0, n*len(g.Active))
	for i := range g.PNone {
		period := float64(i) * g.StepPs
		pN := 1.0
		for _, e := range g.Active {
			p := cdfs[e].ViolationProb(period)
			g.Rows = append(g.Rows, p)
			pN *= 1 - p
		}
		g.PNone[i] = pN
	}
	return g
}
