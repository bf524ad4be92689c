package mrgp

import (
	"context"
	"fmt"
	"math"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// Power-iteration limits for the sparse embedded chain. The tolerance is on
// the L1 change per cycle; the stall band accepts the float64 rounding
// floor when improvement dies out, mirroring linalg.SteadyStateGS.
const (
	embTol       = 1e-15
	embStallTol  = 1e-12
	embMaxCycles = 50000
)

// SolveSparseSeededCtxWS computes the steady state of a clocked DSPN
// without ever materializing a dense matrix. The embedded chain
// P = e^{Q tau} D is never formed: one application x -> xP is the
// matrix-free uniformization series for x * e^{Q tau} (cur <- cur +
// (cur*Q)/rate per Poisson term) followed by one product with D, the CSR
// clock branching matrix cached on the graph topology. The stationary
// vector sigma of P comes from restarted GMRES on the bordered system
// x(I - P + 1u) = u (see krylovStationary), which needs a handful of P
// applications because e^{Q tau} leaves P only a few eigenvalues away
// from zero. Occupancy then follows from one matrix-free integral series.
//
// Memory is O(nnz + n) against the dense path's O(n^2), and a P
// application costs O(rate*tau) sparse matvecs, so the solver reaches
// state spaces the dense path cannot hold. A typed SolveError signals the
// caller to fall back: Solve's ladder tries the power rung (the same
// chain, solved by power iteration) and then SolveDenseWS. It is the
// sparse rung of Solve.
//
// The loop checks ctx before every P application (each is a full
// uniformization series, so the check granularity is coarse but the cost
// per check is negligible) and returns a typed SolveError{Kind:
// FailDeadline} when it dies; a nil context never checks.
//
// seed is an optional warm start for the embedded chain: a seed accepted
// by linalg.ApplySeed (right length, finite, non-negative, positive mass)
// replaces the uniform starting vector — typically the Embedded vector of
// a neighboring parameter point on the same topology. The bordered
// system has the unique solution sigma whatever the start, so only the
// step count depends on the seed. A nil or rejected seed reproduces the
// cold solve bit for bit.
func SolveSparseSeededCtxWS(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, seed []float64) (*Solution, error) {
	return solveSparseChain(ctx, ws, g, seed, krylovStationary)
}

// solveSparsePower is a cold SolveSparseSeededCtxWS with the embedded
// stationary vector found by power iteration instead of GMRES: the power
// rung of Solve, and the backstop when the Krylov rung fails.
func solveSparsePower(ctx context.Context, ws *linalg.Workspace, g *petri.Graph) (*Solution, error) {
	return solveSparseChain(ctx, ws, g, nil, powerStationary)
}

// embeddedChain is the matrix-free embedded chain P = e^{Q tau} D of one
// sparse solve.
type embeddedChain struct {
	ws          *linalg.Workspace
	q, d        *linalg.CSR
	delay, rate float64
	moved       []float64 // x * e^{Q tau}, scratch of apply
}

// apply computes dst = xP: one uniformization series, then one product
// with the branching matrix. Every call counts in mrgp.power.cycles.
func (c *embeddedChain) apply(dst, x []float64) error {
	if _, err := c.ws.UniformizedPowerCSR(c.q, x, c.delay, c.rate, truncationEpsilon, c.moved); err != nil {
		return err
	}
	metPowerCycles.Inc()
	return c.d.VecMulInto(dst, c.moved)
}

// stationaryKernel finds the stationary vector of c starting from the
// distribution x0 (workspace scratch the kernel may overwrite), writes it
// into sigma, and returns how many times it applied P and the final L1
// residual it measured.
type stationaryKernel func(ctx context.Context, c *embeddedChain, x0, sigma []float64) (applies int, residual float64, err error)

// solveSparseChain is the body both sparse rungs share: set-up of the
// matrix-free chain, the embedded stationary vector from kernel, and the
// occupancy integral.
func solveSparseChain(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, seed []float64, kernel stationaryKernel) (*Solution, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if !g.HasDeterministic() {
		return nil, ErrNoDeterministic
	}
	delay, err := commonDelay(g)
	if err != nil {
		return nil, err
	}
	metSolveSparse.Inc()

	q, err := g.GeneratorCSR(ws)
	if err != nil {
		return nil, err
	}
	defer ws.PutCSR(q)
	c := &embeddedChain{ws: ws, q: q, d: g.DetBranchCSR(), delay: delay, rate: q.MaxAbsDiag() * 1.02, moved: ws.Vec(n)}
	defer ws.PutVec(c.moved)

	x0 := ws.Vec(n)
	defer ws.PutVec(x0)
	warm := linalg.ApplySeed(x0, seed)
	if !warm {
		for i := range x0 {
			x0[i] = 1 / float64(n)
		}
	}
	sigma := make([]float64, n)
	cycles, err := c.stationary(ctx, kernel, x0, sigma)
	if err != nil {
		return nil, err
	}

	occupancy := make([]float64, n)
	_, osp := obs.StartSpan(ctx, "mrgp.kernel.occupancy")
	_, oerr := ws.UniformizedIntegralCSR(q, sigma, delay, c.rate, truncationEpsilon, occupancy)
	osp.Err(oerr)
	osp.End()
	if oerr != nil {
		return nil, oerr
	}
	linalg.Normalize(occupancy)

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay, Cycles: cycles, Warm: warm}, nil
}

// stationary runs kernel inside the mrgp.kernel.embedded span. The span
// closes before the occupancy span opens (they are sibling kernels under
// the rung span), and the deferred close also covers a kernel panic.
func (c *embeddedChain) stationary(ctx context.Context, kernel stationaryKernel, x0, sigma []float64) (applies int, err error) {
	_, sp := obs.StartSpan(ctx, "mrgp.kernel.embedded")
	residual := math.Inf(1)
	defer func() {
		sp.Int("cycles", int64(applies)).Int("nnz", int64(c.q.NNZ()))
		// No residual before the first one is measured: its +Inf start
		// value has no JSON encoding and would blank the whole /solve
		// reply that carries this span.
		if !math.IsInf(residual, 0) {
			sp.Float("residual", residual)
		}
		sp.Err(err)
		sp.End()
	}()
	applies, residual, err = kernel(ctx, c, x0, sigma)
	if !math.IsInf(residual, 0) {
		metPowerResidual.Set(residual)
	}
	return applies, err
}

// powerStationary is power iteration on the embedded chain,
//
//	v <- normalize(vP)
//
// e^{Q tau} is strictly positive on an irreducible subordinated chain, so
// the iteration contracts onto the stationary vector of the unique closed
// class of P — the same limit the dense path extracts by classifying the
// recurrent class explicitly — and the mass it places on epoch-transient
// states decays geometrically to zero. The contraction rate is the
// second eigenvalue of P, which on the paper's six-version model is ~0.89
// per cycle: ~300 cycles per solve, where the Krylov rung needs ~15.
func powerStationary(ctx context.Context, c *embeddedChain, x0, sigma []float64) (int, float64, error) {
	v := x0
	next := c.ws.Vec(len(x0))
	defer c.ws.PutVec(next)

	converged := false
	prev := math.Inf(1)
	stall := 0
	cycles := 0
	lastDelta := math.Inf(1)
	for cycle := 0; cycle < embMaxCycles; cycle++ {
		if err := linalg.CtxError("mrgp.power", ctx); err != nil {
			return cycles, lastDelta, err
		}
		if faultinject.Enabled() {
			fiMrgpPanic.Panic()
			if fiPowerStall.Fire() {
				return cycles, lastDelta, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1,
					Err: fmt.Errorf("%w: injected embedded power stall at cycle %d", linalg.ErrNotConverged, cycle)}
			}
		}
		if err := c.apply(next, v); err != nil {
			return cycles, lastDelta, err
		}
		var delta, norm float64
		for i := range next {
			norm += next[i]
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			return cycles, lastDelta, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNaN, Index: -1,
				Err: fmt.Errorf("mrgp: embedded iterate went non-finite at cycle %d", cycle)}
		}
		if norm <= 0 {
			return cycles, lastDelta, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1,
				Err: fmt.Errorf("mrgp: embedded iterate vanished at cycle %d", cycle)}
		}
		inv := 1 / norm
		for i := range next {
			next[i] *= inv
			diff := next[i] - v[i]
			if diff < 0 {
				diff = -diff
			}
			delta += diff
		}
		v, next = next, v
		cycles = cycle + 1
		lastDelta = delta
		if delta <= embTol {
			converged = true
			break
		}
		if delta >= prev*0.98 {
			if stall++; stall >= 10 && delta <= embStallTol {
				converged = true
				break
			}
		} else {
			stall = 0
		}
		prev = delta
	}
	if !converged {
		return cycles, lastDelta, &linalg.SolveError{Site: "mrgp.power", Kind: linalg.FailNotConverged, Index: -1, Residual: lastDelta,
			Err: fmt.Errorf("%w: embedded power iteration after %d cycles", linalg.ErrNotConverged, embMaxCycles)}
	}
	copy(sigma, v)
	return cycles, lastDelta, nil
}
