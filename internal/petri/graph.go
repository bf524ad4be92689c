package petri

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
)

// ErrNoStates is returned when a graph has an empty tangible state space.
var ErrNoStates = errors.New("petri: graph has no tangible states")

// Generator assembles the CTMC generator matrix over the tangible states
// from the exponential rate edges. Deterministic transitions are not
// represented; callers analyzing a DSPN with a deterministic transition
// should use package mrgp, which combines this generator with the
// deterministic schedules.
func (g *Graph) Generator() (*linalg.Dense, error) {
	return g.GeneratorWS(nil)
}

// GeneratorWS is the workspace-backed form of Generator: the matrix comes
// from ws (release it with ws.PutMat when done). A nil workspace allocates.
func (g *Graph) GeneratorWS(ws *linalg.Workspace) (*linalg.Dense, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, ErrNoStates
	}
	q := ws.Mat(n, n)
	for _, e := range g.Exp {
		q.Add(e.From, e.To, e.Rate)
		q.Add(e.From, e.From, -e.Rate)
	}
	return q, nil
}

// HasDeterministic reports whether any tangible state enables a
// deterministic transition.
func (g *Graph) HasDeterministic() bool {
	for _, d := range g.Det {
		if d != nil {
			return true
		}
	}
	return false
}

// RewardFn maps a tangible marking to a rate reward.
type RewardFn func(Marking) float64

// RewardVector evaluates a reward function over every tangible state.
func (g *Graph) RewardVector(f RewardFn) []float64 {
	r := make([]float64, g.NumStates())
	for i, m := range g.Markings {
		r[i] = f(m)
	}
	return r
}

// SolvePath identifies which solver produced a steady-state result.
type SolvePath int

// Solver paths, in routing order.
const (
	// PathDense is the dense GTH direct solve.
	PathDense SolvePath = iota
	// PathSparse is the CSR Gauss-Seidel iteration.
	PathSparse
	// PathSparseFallbackDense means the Gauss-Seidel iteration did not
	// converge and the dense GTH backstop produced the result.
	PathSparseFallbackDense
	// PathDenseFallbackPower means the dense GTH solve failed (or its
	// result was rejected by the distribution guard) and the uniformized
	// power backstop produced the result.
	PathDenseFallbackPower
	// PathSparseFallbackPower means both the Gauss-Seidel iteration and
	// the dense GTH backstop failed, and the uniformized power backstop
	// produced the result.
	PathSparseFallbackPower
	// PathPower is a named-rung solve on the uniformized power rung alone
	// (Opts.Rung "power"); the size-routed ladder never reports it.
	PathPower
)

func (p SolvePath) String() string {
	switch p {
	case PathDense:
		return "dense"
	case PathSparse:
		return "sparse"
	case PathSparseFallbackDense:
		return "sparse-fallback-dense"
	case PathDenseFallbackPower:
		return "dense-fallback-power"
	case PathSparseFallbackPower:
		return "sparse-fallback-power"
	case PathPower:
		return "power"
	default:
		return "unknown"
	}
}

// SolveDiag reports how a solve went: the path taken, the Gauss-Seidel
// sweep count (zero on the dense path), the first failure that forced a
// fallback (nil otherwise), and the per-attempt outcomes of every failed
// rung. It exists so callers and tests can assert the solver behavior that
// the result vector alone cannot reveal — most importantly that a sparse
// solve did not silently degrade to a backstop. Graph.Solve fills it for
// CTMCs; mrgp.Solve fills it for clocked DSPNs, with Path one of
// PathSparse, PathDense or PathSparseFallbackDense.
type SolveDiag struct {
	States   int
	Path     SolvePath
	GSSweeps int
	Fallback error
	Attempts []linalg.Attempt

	// PowerIters is the iteration count of the uniformized power rung when
	// it produced the result (zero when power never ran or failed; failed
	// power attempts record their count in Attempts). On an MRGP solve it
	// carries the embedded-chain power cycles (mrgp.Solution.Cycles, zero
	// on the dense path), so Iterations measures both solvers uniformly.
	PowerIters int

	// Seeded reports whether the iterative kernel that produced the result
	// started from an accepted warm-start seed. A seed consumed by a rung
	// that then fell back does not count: fallback rungs always restart
	// from uniform.
	Seeded bool

	// SeedSource describes where an accepted seed came from (set by the
	// warm-start registry layer; empty for cold solves).
	SeedSource string

	// Residual is the final relative L1 residual of the accepting
	// Gauss-Seidel sweep when the sparse rung produced the result (zero
	// for the direct dense path, which has no iteration residual, and for
	// fallback rungs). It feeds the numerics flight recorder: a residual
	// creeping toward the stall band is the early signal of a chain the
	// iterative solver is barely holding.
	Residual float64
}

// Iterations is the total iterative-kernel work of the solve: Gauss-Seidel
// sweeps plus power iterations, including the sweeps of failed attempts
// (GSSweeps already counts a failed GS rung; failed power rungs record
// their iterations in Attempts and are added here).
func (d SolveDiag) Iterations() int {
	total := d.GSSweeps + d.PowerIters
	for _, a := range d.Attempts {
		if a.Solver == "power" {
			total += a.Sweeps
		}
	}
	return total
}

// Opts selects how Graph.Solve runs.
type Opts struct {
	// Seed is an optional warm-start vector: a previous stationary vector
	// from a Restamp sibling of this graph. Only the Gauss-Seidel rung
	// consumes it — dense GTH and the power backstop restart from their
	// usual initialization — so a nil seed reproduces the cold solve bit
	// for bit.
	Seed []float64
	// Rung names one rung to run with no fallback: "gs" (sparse
	// Gauss-Seidel), "gth" (dense direct) or "power" (uniformized power
	// iteration). A failing rung surfaces its typed error instead of
	// rerouting, which is what a shadow re-solve needs: silently falling
	// back onto the primary's path would compare the primary result
	// against itself. Empty routes by size and runs the full ladder.
	Rung string
}

// rungState carries one steady-state solve through the ladder: the
// inputs every rung reads and the outputs the rungs leave behind.
type rungState struct {
	g    *Graph
	ws   *linalg.Workspace
	seed []float64

	pi         []float64
	gsSweeps   int
	warm       bool
	residual   float64
	powerIters int
}

// The rung table. State spaces of linalg.SparseThreshold states or more
// run GS -> dense GTH -> uniformized power; smaller ones run GTH -> power,
// since dense GTH's constant factors win there. The dense generator of
// the GTH rung is assembled independently from the rate edges, so a
// corrupted CSR stamp does not poison it; the power rung needs nothing
// from the generator beyond matvecs.
var (
	rungGS    = linalg.Rung[*rungState]{Name: "gs", Span: "petri.rung.gs", Site: "petri.solve.gs", Iters: "sweeps", Run: solveGS}
	rungGTH   = linalg.Rung[*rungState]{Name: "gth", Span: "petri.rung.gth", Site: "petri.solve.gth", Run: solveGTH}
	rungPower = linalg.Rung[*rungState]{Name: "power", Span: "petri.rung.power", Site: "petri.solve.power", Iters: "iters", Run: solvePower}

	sparseLadder = linalg.Ladder[*rungState]{Rungs: []linalg.Rung[*rungState]{rungGS, rungGTH, rungPower}, Check: checkPi}
	denseLadder  = linalg.Ladder[*rungState]{Rungs: []linalg.Rung[*rungState]{rungGTH, rungPower}, Check: checkPi}

	// Paths by the index of the rung that answered. Named-rung solves
	// look their rung up in sparseLadder, which holds all three.
	sparsePaths = []SolvePath{PathSparse, PathSparseFallbackDense, PathSparseFallbackPower}
	densePaths  = []SolvePath{PathDense, PathDenseFallbackPower}
	namedPaths  = []SolvePath{PathSparse, PathDense, PathPower}
)

func checkPi(site string, s *rungState) error { return linalg.ValidateDistribution(site, s.pi) }

// Solve is the steady-state entry point for a graph with no
// deterministic transitions: routing by size, a validated fallback ladder
// driven by typed failures (sparse: GS -> dense GTH -> uniformized power;
// dense: GTH -> power), panic recovery around every rung, and a
// distribution guard on every candidate result. The contract is that a
// fault anywhere in the solve either recovers on a later rung or surfaces
// as a typed *linalg.SolveError — never a silently wrong vector. The
// iterative kernels check ctx periodically, and the ladder stops at the
// first deadline failure. A nil ctx never expires; a nil ws allocates.
// The returned vector is freshly allocated and the diag reports the path
// taken, iteration counts, and every failed rung.
func (g *Graph) Solve(ctx context.Context, ws *linalg.Workspace, o Opts) ([]float64, SolveDiag, error) {
	ctx, sp := obs.StartSpan(ctx, "petri.solve")
	pi, diag, err := g.solve(ctx, ws, o)
	sp.Int("states", int64(diag.States)).
		Str("path", diag.Path.String()).
		Int("gs_sweeps", int64(diag.GSSweeps)).
		Int("power_iters", int64(diag.PowerIters)).
		Int("fallbacks", int64(len(diag.Attempts))).
		Str("seeded", map[bool]string{false: "cold", true: "warm"}[diag.Seeded]).
		Err(err)
	sp.End()
	return pi, diag, err
}

// SteadyStateDiagCtxWS is Solve with default options. It is kept only
// for the perfbench module, which calls it by name.
func (g *Graph) SteadyStateDiagCtxWS(ctx context.Context, ws *linalg.Workspace) ([]float64, SolveDiag, error) {
	return g.Solve(ctx, ws, Opts{})
}

func (g *Graph) solve(ctx context.Context, ws *linalg.Workspace, o Opts) ([]float64, SolveDiag, error) {
	if g.HasDeterministic() {
		return nil, SolveDiag{}, errors.New("petri: graph has deterministic transitions; use mrgp.Solve")
	}
	diag := SolveDiag{States: g.NumStates()}
	if err := linalg.CtxError("petri.solve", ctx); err != nil {
		return nil, diag, err
	}
	ladder, paths := &denseLadder, densePaths
	switch {
	case o.Rung != "":
		ladder, paths = &sparseLadder, namedPaths
	case g.NumStates() >= linalg.SparseThreshold:
		ladder, paths = &sparseLadder, sparsePaths
		metSolveSparse.Inc()
	default:
		metSolveDense.Inc()
	}
	st := &rungState{g: g, ws: ws, seed: o.Seed}
	last, attempts, err := ladder.Run(ctx, st, o.Rung)
	if last < 0 {
		return nil, diag, fmt.Errorf("petri: %w", err)
	}
	diag.Path = paths[last]
	diag.GSSweeps = st.gsSweeps
	diag.Attempts = attempts
	if len(attempts) > 0 {
		diag.Fallback = attempts[0].Err
	}
	if o.Rung == "" {
		for _, r := range ladder.Rungs[1 : last+1] {
			if r.Name == "gth" {
				metSolveFallback.Inc()
			} else {
				metSolveFallbackPower.Inc()
			}
		}
		if err != nil {
			metSolveFailed.Inc()
		} else if last > 0 {
			metSolveRecovered.Inc()
		}
	}
	if err != nil {
		return nil, diag, err
	}
	switch ladder.Rungs[last].Name {
	case "gs":
		diag.Seeded, diag.Residual = st.warm, st.residual
	case "power":
		diag.PowerIters = st.powerIters
	}
	return st.pi, diag, nil
}

// solveGS is the Gauss-Seidel rung over the transposed CSR generator. The
// rung span covers generator stamping plus validation; the nested kernel
// span isolates the iteration itself (the kernel stays span-free
// internally so its NoAlloc guarantees are untouched).
func solveGS(ctx context.Context, s *rungState) (int, error) {
	s.pi = make([]float64, s.g.NumStates())
	qt, err := s.g.GeneratorCSRTranspose(s.ws)
	if err != nil {
		return 0, err
	}
	_, ksp := obs.StartSpan(ctx, "linalg.gs")
	s.gsSweeps, s.warm, s.residual, err = s.ws.SteadyStateGS(ctx, qt, s.pi, s.seed)
	ksp.Int("sweeps", int64(s.gsSweeps)).Int("nnz", int64(qt.NNZ())).Err(err)
	ksp.End()
	s.ws.PutCSR(qt)
	return s.gsSweeps, err
}

// solveGTH is the dense GTH rung; the kernel span covers only the
// elimination, not the generator assembly.
func solveGTH(ctx context.Context, s *rungState) (int, error) {
	q, err := s.g.GeneratorWS(s.ws)
	if err != nil {
		return 0, err
	}
	defer s.ws.PutMat(q)
	_, ksp := obs.StartSpan(ctx, "linalg.gth")
	s.pi, err = s.ws.SteadyStateGTH(q, nil)
	ksp.Err(err)
	ksp.End()
	return 0, err
}

// solvePower is the uniformized power-iteration rung, the last of the
// ladder. It never consumes the warm-start seed.
func solvePower(ctx context.Context, s *rungState) (int, error) {
	q, err := s.g.GeneratorCSR(s.ws)
	if err != nil {
		return 0, err
	}
	s.pi = make([]float64, s.g.NumStates())
	_, ksp := obs.StartSpan(ctx, "linalg.power")
	s.powerIters, _, err = s.ws.SteadyStatePower(ctx, q, s.pi, nil)
	ksp.Int("iters", int64(s.powerIters)).Int("nnz", int64(q.NNZ())).Err(err)
	ksp.End()
	s.ws.PutCSR(q)
	return s.powerIters, err
}
