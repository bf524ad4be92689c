package nvp

import (
	"context"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
	"nvrel/internal/warmstart"
)

// WarmRegistry pairs a Model solve with the warm-start seed store: each
// solve first looks up the nearest already-solved neighbor on the model's
// topology and seeds the iterative kernels with its iterate, then records
// its own iterate for future neighbors. Seeding is a pure hint — the
// kernels re-validate every seed and converge to the same fixed point from
// any accepted start — so results are within solver tolerance of the cold
// path and bit-identical wherever seeding does not apply.
//
// Seeding applies only where an iterative kernel runs: models below
// linalg.SparseThreshold route to the dense direct solvers and are passed
// through untouched (bit-identical to the cold path), as is the general
// waits-for-wave Markov-regenerative solver. A nil *WarmRegistry is inert
// and solves cold, so callers can thread an optional registry without nil
// checks.
//
// The registry is safe for concurrent use by a worker pool, but note that
// warm-start results then depend on solve completion order: a point may be
// seeded by whichever neighbor finished first. Drivers that must be
// bit-reproducible across worker counts should either solve cold or use
// one registry per deterministic work sequence.
type WarmRegistry struct {
	reg *warmstart.Registry
}

// NewWarmRegistry returns an empty warm-start registry.
func NewWarmRegistry() *WarmRegistry {
	return &WarmRegistry{reg: warmstart.NewRegistry()}
}

// Solve solves m like Model.Solve, seeded from and feeding the registry.
// The returned diag carries the seed provenance: Seeded is true when the
// producing kernel actually started from the registry's vector, and
// SeedSource names the registry policy.
func (w *WarmRegistry) Solve(ctx context.Context, ws *linalg.Workspace, m *Model) ([]float64, petri.SolveDiag, error) {
	if w == nil || m.Graph.NumStates() < linalg.SparseThreshold || m.Params.Clock == ClockWaitsForWave {
		return m.Solve(ctx, ws, Opts{})
	}
	key := m.Graph.TopologyKey()
	if key == nil {
		return m.Solve(ctx, ws, Opts{})
	}
	sig := m.Graph.RateSignature(nil)
	pi, iterate, diag, err := m.solve(ctx, ws, Opts{Seed: w.reg.Lookup(key, sig)})
	if err != nil {
		return nil, diag, err
	}
	if diag.Seeded {
		diag.SeedSource = "topology-neighbor"
	}
	w.reg.Insert(key, sig, iterate)
	return pi, diag, nil
}

// SolveDiagCtxWS is Solve with its arguments reordered. It is
// kept only for the perfbench module, which calls it by name.
func (w *WarmRegistry) SolveDiagCtxWS(ctx context.Context, m *Model, ws *linalg.Workspace) ([]float64, petri.SolveDiag, error) {
	return w.Solve(ctx, ws, m)
}
