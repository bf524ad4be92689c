package mrgp

import (
	"context"
	"fmt"
	"math"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
)

// Limits of the Krylov rung.
const (
	// krylovRestart is the GMRES restart length m: the most basis vectors
	// one cycle builds before it restarts from its best iterate. The
	// six-version model needs about N+10 steps (15 at N=12 on the
	// paper's 600 s clock; 39, 50 and 61 at N=30, 40 and 50 on a 30 s
	// clock), so one cycle answers up to N~70; basis vectors are taken
	// on first use, so a short solve pays for the steps it runs, not for
	// m. A restart length of 30 stagnated from N=40 on.
	krylovRestart = 100
	// krylovTol accepts an iterate x of mass 1 once ||xP - x||_1 is at
	// most this; the float64 floor of the paper's models is 5e-16 to
	// 1e-14, rising with N.
	krylovTol = 1e-14
	// krylovStall is the progress a restart must show: a true residual
	// above krylovStall times the previous restart's means the cycle
	// stagnated. A stagnated residual within embStallTol is the rounding
	// floor and is accepted, as on the power rung; above it the rung
	// fails at once instead of spending the budget on restarts that
	// repeat the same cycle.
	krylovStall = 0.98
	// krylovClip is the rounding-noise band of a converged iterate:
	// entries in [-krylovClip, 0) sit on epoch-transient states and are
	// clipped to 0; anything more negative fails the rung.
	krylovClip = 1e-13
	// krylovMaxApplies is the budget of P applications, residual checks
	// included. A chain that has not converged by then goes to the power
	// rung.
	krylovMaxApplies = 600
)

// krylovStationary is the stationary kernel of the sparse rung: GMRES
// with the production restart length and tolerance.
func krylovStationary(ctx context.Context, c *embeddedChain, x0, sigma []float64) (int, float64, error) {
	return gmres(ctx, c, x0, sigma, krylovRestart, krylovTol)
}

// gmres solves for the stationary vector sigma of the embedded chain with
// GMRES(m), m <= krylovRestart, starting from x0, on the bordered system
//
//	x (I - P + 1u) = u,   u = (1/n, ..., 1/n),
//
// accepting at a true residual of tol. 1 is the all-ones column. P has a
// single closed class, so sigma(I - P) = 0 has a one-dimensional solution
// space; the rank-one border 1u makes the system nonsingular, and sigma
// (mass 1) is its unique solution: any solution x has x1 = 1, so
// x(I - P) = 0. On the singular system itself the least-squares problems
// GMRES solves are rank-deficient near convergence and fix the iterate
// only up to the null space; the border removes that freedom.
//
// Each Krylov step applies P once. e^{Q tau} damps every fast mode of Q
// to ~0, so I - P + 1u has only a handful of eigenvalues away from 1 and
// GMRES resolves them in about as many steps: ~15 P applications on the
// six-version N=12 model, where power iteration contracts at ~0.89 per
// cycle and needs ~300. Orthogonalization is modified Gram-Schmidt run
// twice, the least-squares problem is reduced by Givens rotations, and
// every restart (and the final acceptance test) recomputes the true
// residual: for x of mass 1 the bordered residual u - x(I - P + 1u) is
// exactly xP - x.
//
// The returned sigma is clipped of rounding noise and renormalized.
// Non-finite values, zero mass, a clearly negative entry, a restart that
// stagnates above embStallTol or an exhausted budget are typed
// SolveErrors at site mrgp.krylov, so Solve's ladder falls back to the
// power rung.
func gmres(ctx context.Context, c *embeddedChain, x0, sigma []float64, m int, tol float64) (applies int, residual float64, err error) {
	n := len(x0)
	ws := c.ws
	x := x0
	w := ws.Vec(n)
	defer ws.PutVec(w)
	// h is the (m+1) x m Hessenberg matrix, row-major with stride m,
	// rotated in place.
	h := ws.Vec((m + 1) * m)
	defer ws.PutVec(h)
	var basis [krylovRestart + 1][]float64
	defer func() {
		for _, v := range basis {
			ws.PutVec(v)
		}
	}()
	var (
		cs, sn [krylovRestart]float64 // Givens rotations
		g      [krylovRestart + 1]float64
		y      [krylovRestart]float64
	)
	border := 1 / float64(n)
	// Inner steps stop once the rotated 2-norm estimate could put the
	// 1-norm residual under tol; the true residual decides.
	innerTol := tol / math.Sqrt(float64(n))
	residual = math.Inf(1)

	// applyP is one checked application: the ctx check and the fault
	// hooks sit before every P, as in the power rung.
	applyP := func(dst, v []float64) error {
		if err := linalg.CtxError("mrgp.krylov", ctx); err != nil {
			return err
		}
		if faultinject.Enabled() {
			fiMrgpPanic.Panic()
			if fiKrylovStall.Fire() {
				return &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNotConverged, Index: -1,
					Err: fmt.Errorf("%w: injected Krylov stall after %d applications", linalg.ErrNotConverged, applies)}
			}
		}
		applies++
		return c.apply(dst, v)
	}

	for {
		// True residual of x (mass 1): r = xP - x.
		if err := applyP(w, x); err != nil {
			return applies, residual, err
		}
		var r1, r2 float64
		for i := range w {
			d := w[i] - x[i]
			w[i] = d
			r1 += math.Abs(d)
			r2 += d * d
		}
		if math.IsNaN(r1) || math.IsInf(r1, 0) {
			return applies, residual, &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNaN, Index: -1,
				Err: fmt.Errorf("mrgp: Krylov residual went non-finite after %d applications", applies)}
		}
		stalled := r1 > krylovStall*residual
		residual = r1
		switch {
		case r1 <= tol, stalled && r1 <= embStallTol:
			return applies, residual, krylovAccept(x, sigma, residual)
		case stalled:
			return applies, residual, &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNotConverged, Index: -1, Residual: residual,
				Err: fmt.Errorf("%w: embedded Krylov solve stagnated after %d applications", linalg.ErrNotConverged, applies)}
		case applies >= krylovMaxApplies:
			return applies, residual, &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNotConverged, Index: -1, Residual: residual,
				Err: fmt.Errorf("%w: embedded Krylov solve after %d applications", linalg.ErrNotConverged, applies)}
		}

		// One GMRES cycle from x; it leaves one application of the
		// budget for the residual check that follows.
		beta := math.Sqrt(r2)
		v0 := takeBasis(ws, &basis, 0, n)
		for i := range w {
			v0[i] = w[i] / beta
		}
		clear(h)
		g = [krylovRestart + 1]float64{beta}
		k := 0
		for j := 0; j < m && applies < krylovMaxApplies-1; j++ {
			vj := basis[j]
			// w = vj (I - P + 1u).
			if err := applyP(w, vj); err != nil {
				return applies, residual, err
			}
			var mass float64
			for _, v := range vj {
				mass += v
			}
			mass *= border
			for i := range w {
				w[i] = vj[i] - w[i] + mass
			}
			for pass := 0; pass < 2; pass++ {
				for i := 0; i <= j; i++ {
					var dot float64
					for l, v := range basis[i] {
						dot += w[l] * v
					}
					h[i*m+j] += dot
					for l, v := range basis[i] {
						w[l] -= dot * v
					}
				}
			}
			var hn float64
			for _, v := range w {
				hn += v * v
			}
			hn = math.Sqrt(hn)
			h[(j+1)*m+j] = hn
			for i := 0; i < j; i++ {
				a, b := h[i*m+j], h[(i+1)*m+j]
				h[i*m+j] = cs[i]*a + sn[i]*b
				h[(i+1)*m+j] = -sn[i]*a + cs[i]*b
			}
			den := math.Hypot(h[j*m+j], hn)
			if den == 0 {
				break
			}
			cs[j], sn[j] = h[j*m+j]/den, hn/den
			h[j*m+j], h[(j+1)*m+j] = den, 0
			g[j+1] = -sn[j] * g[j]
			g[j] *= cs[j]
			k = j + 1
			if hn == 0 || math.Abs(g[j+1]) <= innerTol {
				break
			}
			vn := takeBasis(ws, &basis, j+1, n)
			for i := range w {
				vn[i] = w[i] / hn
			}
		}
		// x += V y, with H y = g solved by back substitution.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for l := i + 1; l < k; l++ {
				s -= h[i*m+l] * y[l]
			}
			y[i] = s / h[i*m+i]
		}
		for i := 0; i < k; i++ {
			for l, v := range basis[i] {
				x[l] += y[i] * v
			}
		}
		var mass float64
		for _, v := range x {
			mass += v
		}
		if math.IsNaN(mass) || math.IsInf(mass, 0) {
			return applies, residual, &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNaN, Index: -1,
				Err: fmt.Errorf("mrgp: Krylov iterate went non-finite after %d applications", applies)}
		}
		if mass <= 0 {
			return applies, residual, &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNotConverged, Index: -1,
				Err: fmt.Errorf("mrgp: Krylov iterate lost its mass after %d applications", applies)}
		}
		inv := 1 / mass
		for i := range x {
			x[i] *= inv
		}
	}
}

// takeBasis returns basis vector j, taking it from ws on first use.
func takeBasis(ws *linalg.Workspace, basis *[krylovRestart + 1][]float64, j, n int) []float64 {
	if basis[j] == nil {
		basis[j] = ws.Vec(n)
	}
	return basis[j]
}

// krylovAccept writes the converged iterate x into sigma with its
// rounding noise clipped: entries in [-krylovClip, 0) become 0 (an
// unclipped negative would make linalg.ApplySeed reject the vector as a
// warm start), anything more negative is a failure, and the result is
// renormalized to mass 1.
func krylovAccept(x, sigma []float64, residual float64) error {
	var mass float64
	for i, v := range x {
		if v < 0 {
			if v < -krylovClip {
				return &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNegative, Index: i, Value: v, Residual: residual}
			}
			v = 0
		}
		sigma[i] = v
		mass += v
	}
	if mass <= 0 {
		return &linalg.SolveError{Site: "mrgp.krylov", Kind: linalg.FailNotConverged, Index: -1, Residual: residual,
			Err: fmt.Errorf("mrgp: Krylov solution has no mass")}
	}
	inv := 1 / mass
	for i := range sigma {
		sigma[i] *= inv
	}
	return nil
}
