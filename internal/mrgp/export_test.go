package mrgp

import (
	"context"

	"nvrel/internal/petri"
)

// KrylovRestart exports the production GMRES restart length to the
// external tests.
const KrylovRestart = krylovRestart

// SolveSparseGMRES is a cold SolveSparseSeededCtxWS whose Krylov rung runs
// GMRES(m) accepting at tol, so tests can drive the restart, stall and
// stagnation rules on the paper's models.
func SolveSparseGMRES(g *petri.Graph, m int, tol float64) (*Solution, error) {
	return solveSparseChain(nil, nil, g, nil, func(ctx context.Context, c *embeddedChain, x0, sigma []float64) (int, float64, error) {
		return gmres(ctx, c, x0, sigma, m, tol)
	})
}
