package mc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fi"
)

// pinnedCase is one grid whose Points TestFaultingPointsPinned pins
// bit for bit. Short cases also run under -short and -race: the pins
// are results of single-threaded trial kernels, so the race detector
// learns nothing from the other cases that the short ones (which run
// through the same concurrent grid engine) do not already show, while
// they would add minutes to a race run.
type pinnedCase struct {
	name  string
	short bool
	grid  Grid
	want  string // pointsDigest of the grid's Points
}

// pinnedCases spans the per-query trial kernel: model C under both
// sampling strategies and both fault semantics, models A, B and B+, and
// both trial estimators. At 760–880 MHz the model-C grids end trials in
// all three ways — clean exit, trap, and the watchdog (kmeans under
// FlipBit/Independent and under StaleCapture) — so every exit path of
// the ISS step feeds a pinned Point.
func pinnedCases() []pinnedCase {
	benches := []*bench.Benchmark{bench.Checksum(), bench.Median(), bench.KMeans()}
	modelC := func(sem fi.Semantics, smp fi.Sampling, mode Mode, trials int) Grid {
		return Grid{
			Spec: Spec{
				System: system(),
				Model:  core.ModelSpec{Kind: "C", Sem: sem, Sampling: smp},
				Trials: trials, Seed: 3, Mode: mode,
			},
			Axes: Axes{
				Benches: benches, Vdds: []float64{0.7}, Sigmas: []float64{0.010},
				Freqs: []float64{760, 800, 840, 880},
			},
		}
	}
	// Model A runs at core.DefaultProbA (the grid fills it in); B and
	// B+ straddle this system's 707 MHz STA limit at 0.7 V.
	others := func(mode Mode, trials int) Grid {
		return Grid{
			Spec: Spec{System: system(), Trials: trials, Seed: 3, Mode: mode},
			Axes: Axes{
				Benches: benches, Kinds: []string{"A", "B", "B+"},
				Vdds: []float64{0.7}, Sigmas: []float64{0.010},
				Freqs: []float64{700, 712, 760},
			},
		}
	}
	return []pinnedCase{
		{"C/flip-bit/independent/auto", true, modelC(fi.FlipBit, fi.Independent, ModeAuto, 32), "f9660a209cf8a7f5"},
		{"C/flip-bit/joint/auto", false, modelC(fi.FlipBit, fi.Joint, ModeAuto, 32), "ceeaa2459b8e5879"},
		{"C/stale-capture/independent/auto", false, modelC(fi.StaleCapture, fi.Independent, ModeAuto, 32), "cfe72f7681ba0dfb"},
		{"C/stale-capture/joint/auto", false, modelC(fi.StaleCapture, fi.Joint, ModeAuto, 32), "a65123996fe3e0b6"},
		{"C/flip-bit/independent/full", true, modelC(fi.FlipBit, fi.Independent, ModeFull, 8), "02fd6231e38a22b9"},
		{"C/stale-capture/joint/full", false, modelC(fi.StaleCapture, fi.Joint, ModeFull, 8), "5d378aaa6edb39e6"},
		{"A,B,B+/auto", true, others(ModeAuto, 16), "637e4f6ebb285f96"},
		{"A,B,B+/full", false, others(ModeFull, 8), "1ea45321813c49f1"},
	}
}

// pinnedGoldens are the traceDigest literals of the pinned benchmarks'
// golden traces (default input seed).
var pinnedGoldens = map[string]string{
	"checksum": "f68a7afff2851904",
	"median":   "e85eee085f0058cc",
	"kmeans":   "e3cd9274a4173865",
}

// TestFaultingPointsPinned pins the trial kernel (ISS step, fork and
// the models' per-query Inject) to literals captured before the kernel
// was tightened: the golden trace of each benchmark (every event,
// store and checkpoint) and the Float64bits of every Point field of
// every pinned grid. A kernel change that moves any of them moves the
// benchmark digests too; regenerating these literals is a deliberate
// stream change, never a fix.
func TestFaultingPointsPinned(t *testing.T) {
	s := Spec{}.withDefaults()
	for _, b := range []*bench.Benchmark{bench.Checksum(), bench.Median(), bench.KMeans()} {
		g, err := system().Golden(b, s.InputSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(g.Trace, g.Want); got != pinnedGoldens[b.Name] {
			t.Errorf("golden trace of %s: digest %s, want %s", b.Name, got, pinnedGoldens[b.Name])
		}
	}
	for _, c := range pinnedCases() {
		if (testing.Short() || raceBuild) && !c.short {
			continue
		}
		res, err := c.grid.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pointsDigest(res); got != c.want {
			t.Errorf("%s: points digest %s, want %s", c.name, got, c.want)
			for _, r := range res {
				t.Logf("  %s %s %v MHz: %+v", r.Bench, r.Model.Kind, r.Model.FreqMHz, r.Point)
			}
		}
	}
}

// pointsDigest hashes every field of every Point in order: float fields
// by their Float64bits, integer fields as 64-bit values. It walks the
// struct by reflection, so a field added to Point is covered without
// touching this function.
func pointsDigest(res []CellResult) string {
	h := sha256.New()
	for _, r := range res {
		v := reflect.ValueOf(r.Point)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Float64:
				putU64(h, math.Float64bits(f.Float()))
			case reflect.Int:
				putU64(h, uint64(f.Int()))
			default:
				panic(fmt.Sprintf("pointsDigest: Point.%s has unhandled kind %v", v.Type().Field(i).Name, f.Kind()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// traceDigest hashes a golden trace — every event (its injector query:
// op, result, previous latch and both flags), every store and
// checkpoint with all their fields, and the run totals — plus the
// golden outputs.
func traceDigest(tr *cpu.Trace, want []uint32) string {
	h := sha256.New()
	b := make([]byte, 0, 1<<16)
	for _, ev := range tr.Events {
		b = append(b, byte(ev.Op), bit(ev.Flag), bit(ev.PrevFlag))
		b = binary.LittleEndian.AppendUint32(b, ev.Result)
		b = binary.LittleEndian.AppendUint32(b, ev.Prev)
		if len(b) > 1<<16-32 {
			h.Write(b)
			b = b[:0]
		}
	}
	for _, st := range tr.Stores {
		b = append(b, st.Size)
		b = binary.LittleEndian.AppendUint32(b, st.Addr)
		b = binary.LittleEndian.AppendUint32(b, st.Val)
		if len(b) > 1<<16-32 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	for _, cp := range tr.Checkpoints {
		fmt.Fprintf(h, "%+v\n", cp)
	}
	totals := *tr
	totals.Events, totals.Stores, totals.Checkpoints = nil, nil, nil
	fmt.Fprintf(h, "%+v\n%v\n", totals, want)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
