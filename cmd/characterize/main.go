// Command characterize runs the gate-level dynamic timing analysis for
// one instruction and dumps the per-endpoint timing-error CDF onsets and
// selected violation probabilities, the data behind the paper's Fig. 2.
//
//	characterize -op l.mul -vdd 0.7 -cycles 8192
//	characterize -op all -vdd 0.7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progress"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	opName := flag.String("op", "l.add", "instruction mnemonic (e.g. l.add, l.mul, l.sfgts) or \"all\"")
	vdd := flag.Float64("vdd", 0.7, "supply voltage in V")
	cycles := flag.Int("cycles", 8192, "characterization kernel cycles")
	gen := flag.String("gen", "", "operand generator override (u32, u16, u8, imm16, ...)")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (persists characterizations)")
	quiet := flag.Bool("q", false, "suppress the stderr progress line")
	flag.Parse()

	cfgAll := core.DefaultConfig()
	cfgAll.DTA.Cycles = *cycles
	sysAll := core.New(cfgAll)
	if *cacheDir != "" {
		st, err := artifact.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		sysAll.AttachStore(st)
	}

	if *opName == "all" {
		characterizeAll(sysAll, *vdd, *quiet)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "characterize: cache %s: %s\n", *cacheDir, sysAll.CacheSummary())
		}
		return
	}

	var op isa.Op
	for _, o := range isa.AllOps() {
		if o.String() == *opName {
			op = o
		}
	}
	if op == isa.OpInvalid || !isa.IsALU(op) {
		log.Fatalf("%q is not an FI-eligible ALU instruction", *opName)
	}

	sys := sysAll

	var profile map[circuit.UnitKind]string
	if *gen != "" {
		profile = map[circuit.UnitKind]string{circuit.UnitOf(op): *gen}
	}
	ch, err := sys.Char.ForOp(op, profile, *vdd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instruction    %v (unit %v, operands %q)\n", op, ch.Key.Unit, ch.Key.Gen)
	fmt.Printf("vdd            %.3f V, %d cycles, setup %.1f ps\n", *vdd, ch.Cycles, ch.SetupPs)
	fmt.Printf("STA limit      %.1f MHz\n", sys.STALimitMHz(*vdd))
	fmt.Printf("onset          %.1f MHz (first timing violations)\n", ch.OnsetMHz())
	fmt.Printf("\n%8s %12s %12s %10s %10s %10s\n",
		"endpoint", "maxArr[ps]", "onset[MHz]", "P@900MHz", "P@1200MHz", "P@1600MHz")
	for e := 0; e < ch.NumEndpoints(); e++ {
		name := fmt.Sprintf("bit%d", e)
		if e == circuit.FlagEndpoint {
			name = "flag"
		}
		c := ch.CDF(e)
		fmt.Printf("%8s %12.1f %12.1f %9.2f%% %9.2f%% %9.2f%%\n",
			name, c.MaxPs(), c.OnsetMHz(),
			c.ViolationProb(circuit.PeriodPs(900))*100,
			c.ViolationProb(circuit.PeriodPs(1200))*100,
			c.ViolationProb(circuit.PeriodPs(1600))*100)
	}
}

// characterizeAll characterizes every FI-eligible ALU instruction at the
// given supply and prints a one-line onset summary per op, with a
// progress/ETA line on stderr (characterization dominates the runtime of
// a cold cache).
func characterizeAll(sys *core.System, vdd float64, quiet bool) {
	var ops []isa.Op
	for _, o := range isa.AllOps() {
		if isa.IsALU(o) {
			ops = append(ops, o)
		}
	}
	var rep *progress.Reporter
	if !quiet {
		rep = progress.New(os.Stderr, "characterize")
	}
	fmt.Printf("all ALU instructions at %.3f V (STA limit %.1f MHz)\n", vdd, sys.STALimitMHz(vdd))
	fmt.Printf("%-10s %-8s %-8s %12s %10s %10s\n",
		"op", "unit", "gen", "onset[MHz]", "P@900MHz", "P@1200MHz")
	rep.Update(0, len(ops))
	for i, op := range ops {
		ch, err := sys.Char.ForOp(op, nil, vdd)
		if err != nil {
			rep.Finish()
			log.Fatal(err)
		}
		var p900, p1200 float64
		for e := 0; e < ch.NumEndpoints(); e++ {
			c := ch.CDF(e)
			if p := c.ViolationProb(circuit.PeriodPs(900)); p > p900 {
				p900 = p
			}
			if p := c.ViolationProb(circuit.PeriodPs(1200)); p > p1200 {
				p1200 = p
			}
		}
		fmt.Printf("%-10s %-8s %-8s %12.1f %9.2f%% %9.2f%%\n",
			op, ch.Key.Unit, ch.Key.Gen, ch.OnsetMHz(), p900*100, p1200*100)
		rep.Update(i+1, len(ops))
	}
	rep.Finish()
}
