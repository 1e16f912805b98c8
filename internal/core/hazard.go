// Hazard-table caching: the per-(golden trace, model) prefix
// log-survival arrays that drive first-fault sampling (see
// internal/fi's hazard machinery). Construction marginalizes the model
// over the noise distribution once per op and folds the hazards over
// the whole recorded query stream, so like characterizations and golden
// traces the result is cached in memory per System and persisted
// through the artifact store: a warm grid run skips hazard construction
// the same way it skips DTA and trace recording.

package core

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/fi"
	"repro/internal/isa"
)

// hazardKey identifies a cached hazard table: the golden trace
// coordinate plus the fully resolved model spec.
type hazardKey struct {
	golden goldenKey
	model  modelKey
}

// HazardBuiltCount reports how many hazard tables this system actually
// constructed (marginalization + prefix fold), as opposed to serving
// from memory or the store.
func (s *System) HazardBuiltCount() int64 { return s.hazards.Built() }

// Hazard returns the first-fault sampling table of the benchmark's
// golden trace under the given model spec, building (and caching, and —
// with an attached store — persisting) it on first use. The model must
// resolve to a fi.HazardModel, which every built-in model kind does;
// benchmarks without a shared golden trace are rejected by Golden.
func (s *System) Hazard(b *bench.Benchmark, inputSeed int64, spec ModelSpec) (*fi.Hazard, error) {
	model, err := s.Model(spec)
	if err != nil {
		return nil, err
	}
	hm, ok := model.(fi.HazardModel)
	if !ok {
		return nil, fmt.Errorf("core: model %s cannot report marginal injection probabilities", model.Name())
	}
	g, err := s.Golden(b, inputSeed)
	if err != nil {
		return nil, err
	}
	// Load-or-build runs once per key; concurrent callers of the same
	// key block on it and share the one table. A stored table whose
	// length does not match the live query stream is a miss, and the
	// build cannot fail: BuildHazard is total.
	k := hazardKey{golden: goldenKey{bench: b.Name, inputSeed: inputSeed}, model: spec.key()}
	return s.hazards.Get(k,
		func() (string, error) { return s.hazardStoreKey(b, inputSeed, spec) },
		func(payload []byte) (*fi.Hazard, bool) {
			h, err := decodeHazard(payload)
			return h, err == nil && h.Queries() == len(g.Queries)
		},
		func() (*fi.Hazard, error) { return fi.BuildHazard(hm, g.Queries), nil })
}

// hazardStoreKey spells out every input the table depends on: the full
// system fingerprint (the marginals integrate model C's DTA-derived
// probability tables and the Vdd-delay noise scale, so circuit/DTA
// config changes must miss), the golden-trace key (program content,
// input seed, CPU timing), and the resolved model spec (kind, operating
// point, canonical profile, semantics, sampling).
func (s *System) hazardStoreKey(b *bench.Benchmark, inputSeed int64, spec ModelSpec) (string, error) {
	gk, err := s.goldenStoreKey(b, inputSeed)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sys=%s|%s|model=%+v", s.Fingerprint(), gk, spec.key()), nil
}

// encodeHazard lays a table out flat: PerOp then LogSurv, as
// little-endian float64 bits (a -Inf survival tail included).
func encodeHazard(h *fi.Hazard) []byte {
	b := make([]byte, 0, 8*(len(h.PerOp)+len(h.LogSurv)))
	return artifact.AppendFloat64s(artifact.AppendFloat64s(b, h.PerOp), h.LogSurv)
}

// decodeHazard parses a blob written by encodeHazard: isa.NumOps PerOp
// values, then a LogSurv of at least one entry (the empty prefix).
func decodeHazard(b []byte) (*fi.Hazard, error) {
	if len(b)%8 != 0 || len(b) < 8*(isa.NumOps+1) {
		return nil, fmt.Errorf("core: %d-byte hazard table", len(b))
	}
	vs := make([]float64, len(b)/8)
	artifact.ReadFloat64s(vs, b)
	return &fi.Hazard{PerOp: vs[:isa.NumOps:isa.NumOps], LogSurv: vs[isa.NumOps:]}, nil
}
