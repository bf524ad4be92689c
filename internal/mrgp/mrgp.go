// Package mrgp solves the steady state of the Deterministic and Stochastic
// Petri Nets used by the rejuvenation architecture via Markov regenerative
// process (MRGP) analysis.
//
// The solver targets the class of DSPNs produced by the paper's models: a
// single deterministic transition (the rejuvenation clock) that is enabled
// in every tangible marking and is only reset by its own firing. Under
// these conditions the clock fires at fixed epochs tau, 2*tau, ... and those
// epochs are regeneration points of the marking process:
//
//  1. between epochs the process evolves as the subordinated CTMC with
//     generator Q built from the exponential transitions;
//  2. at an epoch the clock fires, triggering an immediate-transition
//     cascade described by a stochastic branching matrix D.
//
// The embedded chain at epochs has transition matrix  P = e^{Q tau} D.
// Its stationary vector sigma, combined with the expected sojourn times
// sigma * Integral_0^tau e^{Qt} dt, yields the time-stationary distribution.
package mrgp

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// Solver errors.
var (
	// ErrNoDeterministic is returned for graphs without any deterministic
	// transition; use Graph.Solve instead.
	ErrNoDeterministic = errors.New("mrgp: graph has no deterministic transition")

	// ErrClockNotAlwaysEnabled is returned when some tangible marking does
	// not enable the deterministic transition; such models are outside the
	// solver's regeneration class.
	ErrClockNotAlwaysEnabled = errors.New("mrgp: deterministic transition not enabled in every tangible marking")

	// ErrMixedClocks is returned when tangible markings enable different
	// deterministic transitions or delays.
	ErrMixedClocks = errors.New("mrgp: multiple distinct deterministic transitions or delays")
)

// Solution holds the steady-state analysis of a clocked DSPN.
type Solution struct {
	// Pi is the time-stationary distribution over tangible states.
	Pi []float64

	// Embedded is the stationary distribution of the chain embedded just
	// after clock firings.
	Embedded []float64

	// Delay is the clock period tau.
	Delay float64

	// Cycles is the number of embedded-chain power cycles the sparse
	// solver ran (0 on the dense direct path, which has no iteration).
	Cycles int

	// Warm reports whether the sparse solver started from an accepted
	// warm-start seed instead of the uniform vector.
	Warm bool
}

const truncationEpsilon = 1e-12

// Opts selects how Solve runs.
type Opts struct {
	// Seed is an optional warm-start vector for the embedded-chain
	// stationary vector (a previous Solution's Embedded from a Restamp
	// sibling of the graph). Only the sparse rung consumes it; the dense
	// rung ignores it, so a nil seed reproduces the cold solve bit for bit.
	Seed []float64
	// Rung names one formulation to run with no size routing and no
	// fallback: "sparse" (matrix-free uniformized series + embedded power
	// iteration) or "dense" (dense transient pair + GTH on the embedded
	// chain). A failing rung surfaces its typed error, which is what a
	// shadow re-solve needs. Empty routes by size and runs the ladder.
	Rung string
}

// rungState carries one solve through the ladder.
type rungState struct {
	g    *petri.Graph
	ws   *linalg.Workspace
	seed []float64
	sol  *Solution
}

// The rung table. State spaces of linalg.SparseThreshold states or more
// run sparse -> dense, falling back on any recoverable typed failure (not
// only convergence); smaller ones solve dense directly. Model-class
// failures the dense path would hit identically stop the ladder.
var (
	rungSparse = linalg.Rung[*rungState]{Name: "sparse", Span: "mrgp.rung.sparse", Site: "mrgp.solve.sparse", Run: solveSparse}
	rungDense  = linalg.Rung[*rungState]{Name: "dense", Span: "mrgp.rung.dense", Site: "mrgp.solve.dense", Run: solveDense}

	sparseLadder = linalg.Ladder[*rungState]{Rungs: []linalg.Rung[*rungState]{rungSparse, rungDense}, Check: checkSolution, Structural: isStructuralErr}
	denseLadder  = linalg.Ladder[*rungState]{Rungs: []linalg.Rung[*rungState]{rungDense}, Check: checkSolution, Structural: isStructuralErr}

	// Paths by the index of the rung that answered; named-rung solves
	// look their rung up in sparseLadder.
	sparsePaths = []petri.SolvePath{petri.PathSparse, petri.PathSparseFallbackDense}
	densePaths  = []petri.SolvePath{petri.PathDense}
	namedPaths  = []petri.SolvePath{petri.PathSparse, petri.PathDense}
)

// isStructuralErr reports model-class failures the dense path would hit
// identically, so falling back cannot recover them.
func isStructuralErr(err error) bool {
	return errors.Is(err, petri.ErrNoStates) ||
		errors.Is(err, ErrNoDeterministic) ||
		errors.Is(err, ErrClockNotAlwaysEnabled) ||
		errors.Is(err, ErrMixedClocks)
}

// checkSolution is the ladder's result guard (see validateSolution).
func checkSolution(site string, s *rungState) error { return validateSolution(site, s.sol) }

func solveSparse(ctx context.Context, s *rungState) (int, error) {
	var err error
	s.sol, err = SolveSparseSeededCtxWS(ctx, s.ws, s.g, s.seed)
	return 0, err
}

func solveDense(ctx context.Context, s *rungState) (int, error) {
	if err := linalg.CtxError("mrgp.solve.dense", ctx); err != nil {
		return 0, err
	}
	var err error
	s.sol, err = SolveDenseWS(s.ws, s.g)
	return 0, err
}

// Solve computes the steady-state distribution of the tangible
// reachability graph g, which must enable one deterministic transition
// (with one common delay) in every tangible state. All scratch comes from
// ws (nil allocates), so sweeping a parameter over one model solves
// allocation-light after the first point; the returned Solution owns its
// vectors either way.
//
// It is the hardened entry point: size routing, panic recovery around
// both rungs, a distribution guard on every candidate result, and a
// sparse -> dense fallback. The diag reports the path taken, the failed
// rungs, the embedded power cycles (in PowerIters) and whether the seed
// was used. The routed_dense/routed_sparse counters record the routing
// decision; recovered_dense records dense successes that followed a
// sparse failure, so observability can tell "small model, dense by
// design" apart from "sparse path failed and was rescued".
func Solve(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, o Opts) (*Solution, petri.SolveDiag, error) {
	ctx, sp := obs.StartSpan(ctx, "mrgp.solve")
	defer sp.End()
	sp.Int("states", int64(g.NumStates()))
	diag := petri.SolveDiag{States: g.NumStates()}
	if err := linalg.CtxError("mrgp.solve", ctx); err != nil {
		sp.Err(err)
		return nil, diag, err
	}
	ladder, paths := &denseLadder, densePaths
	switch {
	case o.Rung != "":
		ladder, paths = &sparseLadder, namedPaths
	case g.NumStates() >= linalg.SparseThreshold:
		ladder, paths = &sparseLadder, sparsePaths
		metRoutedSparse.Inc()
		sp.Str("routed", "sparse")
	default:
		metRoutedDense.Inc()
		sp.Str("routed", "dense")
	}
	st := &rungState{g: g, ws: ws, seed: o.Seed}
	last, attempts, err := ladder.Run(ctx, st, o.Rung)
	if last < 0 {
		err = fmt.Errorf("mrgp: %w", err)
		sp.Err(err)
		return nil, diag, err
	}
	diag.Path = paths[last]
	diag.Attempts = attempts
	if len(attempts) > 0 {
		diag.Fallback = attempts[0].Err
	}
	if o.Rung == "" && last > 0 {
		metSolveFallback.Inc()
		if err == nil {
			metRecoveredDense.Inc()
			sp.Str("recovered", "dense")
		}
	}
	if err != nil {
		sp.Err(err)
		return nil, diag, err
	}
	diag.PowerIters, diag.Seeded = st.sol.Cycles, st.sol.Warm
	if diag.Path == petri.PathSparse {
		sp.Int("cycles", int64(st.sol.Cycles)).
			Str("seeded", map[bool]string{false: "cold", true: "warm"}[st.sol.Warm])
	}
	return st.sol, diag, nil
}

// validateSolution guards both output vectors of a Solution: the
// time-stationary and the embedded distributions each must be a valid
// point on the probability simplex.
func validateSolution(site string, sol *Solution) error {
	if err := linalg.ValidateDistribution(site, sol.Pi); err != nil {
		return err
	}
	return linalg.ValidateDistribution(site, sol.Embedded)
}

// SolveDenseWS computes the solution with the dense kernels (dense
// generator, dense scaling-and-doubling transient pair, GTH on the
// embedded chain), unconditionally. It is the reference path the sparse
// solver is validated against and the backstop when the sparse power
// iteration does not converge.
func SolveDenseWS(ws *linalg.Workspace, g *petri.Graph) (*Solution, error) {
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
	metSolveDense.Inc()

	q, err := g.GeneratorWS(ws)
	if err != nil {
		return nil, err
	}
	defer ws.PutMat(q)

	// D: branching matrix applied at clock firings.
	d := ws.Mat(n, n)
	defer ws.PutMat(d)
	for i, sched := range g.Det {
		for _, pe := range sched.Successors {
			d.Add(i, pe.To, pe.Prob)
		}
	}

	// T = e^{Q tau} and U = Integral_0^tau e^{Qt} dt via uniformization
	// with scaling and doubling (see transient.go).
	tMat, uMat, err := transientPairDense(ws, q, delay)
	if err != nil {
		return nil, fmt.Errorf("transient pair: %w", err)
	}
	defer ws.PutMat(tMat)
	defer ws.PutMat(uMat)

	p := ws.Mat(n, n)
	defer ws.PutMat(p)
	if err := p.MulInto(tMat, d); err != nil {
		return nil, err
	}
	sigma, err := embeddedStationary(ws, p)
	if err != nil {
		return nil, fmt.Errorf("embedded chain: %w", err)
	}

	occupancy := make([]float64, n)
	if err := uMat.VecMulInto(occupancy, sigma); err != nil {
		return nil, err
	}
	linalg.Normalize(occupancy)

	return &Solution{Pi: occupancy, Embedded: sigma, Delay: delay}, nil
}

// embeddedStationary solves sigma = sigma * P for the embedded chain. The
// chain is typically reducible: states visited only mid-cycle are transient
// at regeneration epochs (for instance, markings without a rejuvenation
// wave in flight are never observed immediately after a clock tick). The
// stationary vector is therefore computed on the unique closed recurrent
// class and is zero elsewhere.
func embeddedStationary(ws *linalg.Workspace, p *linalg.Dense) ([]float64, error) {
	n, _ := p.Dims()
	members, err := recurrentClass(p)
	if err != nil {
		return nil, err
	}
	sigma := make([]float64, n)
	if len(members) == 1 {
		sigma[members[0]] = 1
		return sigma, nil
	}
	sub := ws.Mat(len(members), len(members))
	defer ws.PutMat(sub)
	for a, i := range members {
		// Renormalize rows over the class: mass leaking to transient
		// states is truncation noise, and a recurrent class keeps its mass
		// by definition.
		var rowSum float64
		for _, j := range members {
			rowSum += p.At(i, j)
		}
		if rowSum <= 0 {
			return nil, ErrNotErgodic
		}
		for b, j := range members {
			sub.Set(a, b, p.At(i, j)/rowSum)
		}
	}
	subPi := ws.Vec(len(members))
	defer ws.PutVec(subPi)
	if _, err := ws.SteadyStateDTMC(sub, subPi); err != nil {
		return nil, err
	}
	for a, i := range members {
		sigma[i] = subPi[a]
	}
	return sigma, nil
}

// commonDelay verifies the regeneration-class restrictions and returns the
// shared clock period.
func commonDelay(g *petri.Graph) (float64, error) {
	var (
		delay float64
		tref  petri.TransitionRef
		seen  bool
	)
	for i, sched := range g.Det {
		if sched == nil {
			return 0, fmt.Errorf("%w: state %s", ErrClockNotAlwaysEnabled, g.Net.FormatMarking(g.Markings[i]))
		}
		if !seen {
			delay, tref, seen = sched.Delay, sched.Transition, true
			continue
		}
		if sched.Transition != tref || sched.Delay != delay {
			return 0, fmt.Errorf("%w: %q/%g vs %q/%g", ErrMixedClocks,
				g.Net.TransitionName(tref), delay, g.Net.TransitionName(sched.Transition), sched.Delay)
		}
	}
	return delay, nil
}
