package mrgp_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// sixVersion builds the paper's six-version model at N modules and
// rejuvenation interval tau (0 keeps the default) through cache.
func sixVersion(t *testing.T, cache *nvp.ModelCache, n int, tau float64) *petri.Graph {
	t.Helper()
	p := nvp.DefaultSixVersion()
	p.N = n
	if tau > 0 {
		p.RejuvenationInterval = tau
	}
	m, err := cache.BuildWithRejuvenation(p)
	if err != nil {
		t.Fatalf("N=%d tau=%g: %v", n, tau, err)
	}
	return m.Graph
}

// maxAbsDiff is the L-infinity distance between a and b.
func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestKrylovSixVersionN12Applications is the machine-independent cost
// gate of the sparse rung: a cold six-version N=12 solve (247 states,
// routed sparse by size) at the paper's parameters answers on the Krylov
// rung within 30 applications of P. Power iteration needs ~300.
func TestKrylovSixVersionN12Applications(t *testing.T) {
	g := sixVersion(t, nvp.NewModelCache(), 12, 0)
	sol, diag, err := mrgp.Solve(nil, nil, g, mrgp.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Path != petri.PathSparse || diag.Seeded {
		t.Fatalf("path = %v seeded = %v, want a cold sparse solve", diag.Path, diag.Seeded)
	}
	if diag.PowerIters != sol.Cycles || sol.Cycles == 0 || sol.Cycles > 30 {
		t.Fatalf("cold N=12 solve took %d applications of P (diag %d), want 1..30", sol.Cycles, diag.PowerIters)
	}
}

// TestKrylovMatchesDense: the Krylov rung agrees with the dense reference
// to 1e-12 in both output vectors across model sizes and clock periods.
// The dense references dominate the cost, so the points run in parallel.
func TestKrylovMatchesDense(t *testing.T) {
	for _, n := range []int{8, 10, 12, 16} {
		for _, tau := range []float64{30, 150, 450, 1000} {
			t.Run(fmt.Sprintf("N=%d/tau=%g", n, tau), func(t *testing.T) {
				t.Parallel()
				g := sixVersion(t, nvp.NewModelCache(), n, tau)
				want, err := mrgp.SolveDenseWS(nil, g)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mrgp.SolveSparseSeededCtxWS(nil, nil, g, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(got.Pi, want.Pi); d > 1e-12 {
					t.Errorf("|pi - dense|_inf = %.3g after %d applications", d, got.Cycles)
				}
				if d := maxAbsDiff(got.Embedded, want.Embedded); d > 1e-12 {
					t.Errorf("|sigma - dense|_inf = %.3g", d)
				}
			})
		}
	}
}

// TestKrylovEmbeddedIsAWarmSeed: the Krylov rung clips its rounding noise,
// so its Embedded vector passes linalg.ApplySeed; a warm re-solve from it,
// and from a neighboring point's vector, agrees with the cold solve to
// 1e-12 and needs no more applications.
func TestKrylovEmbeddedIsAWarmSeed(t *testing.T) {
	ws := linalg.NewWorkspace()
	cache := nvp.NewModelCache()
	g := sixVersion(t, cache, 12, 450)
	cold, err := mrgp.SolveSparseSeededCtxWS(nil, ws, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := mrgp.SolveSparseSeededCtxWS(nil, ws, sixVersion(t, cache, 12, 470), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string][]float64{"self": cold.Embedded, "neighbor": neighbor.Embedded} {
		if !linalg.ApplySeed(make([]float64, len(seed)), seed) {
			t.Fatalf("%s: ApplySeed rejected the Krylov Embedded vector", name)
		}
		warm, err := mrgp.SolveSparseSeededCtxWS(nil, ws, g, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !warm.Warm {
			t.Errorf("%s: warm solve did not use the seed", name)
		}
		if warm.Cycles > cold.Cycles {
			t.Errorf("%s: warm solve took %d applications, cold %d", name, warm.Cycles, cold.Cycles)
		}
		if d := maxAbsDiff(warm.Pi, cold.Pi); d > 1e-12 {
			t.Errorf("%s: |pi warm - pi cold|_inf = %.3g", name, d)
		}
		if d := maxAbsDiff(warm.Embedded, cold.Embedded); d > 1e-12 {
			t.Errorf("%s: |sigma warm - sigma cold|_inf = %.3g", name, d)
		}
	}
}

// TestKrylovSixVersionN40OneCycle: the six-version N=40 model (2 501
// states) at a 30 s clock needs ~50 Krylov steps, so one GMRES cycle of
// the production restart length answers it on the sparse rung. A restart
// length of 30 stagnated here at a residual of 3e-2 and spent its whole
// budget before the power rung took over.
func TestKrylovSixVersionN40OneCycle(t *testing.T) {
	g := sixVersion(t, nvp.NewModelCache(), 40, 30)
	sol, diag, err := mrgp.Solve(nil, nil, g, mrgp.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Path != petri.PathSparse || sol.Cycles == 0 || sol.Cycles > mrgp.KrylovRestart {
		t.Fatalf("path %v after %d applications of P, want the sparse rung within one cycle of %d", diag.Path, sol.Cycles, mrgp.KrylovRestart)
	}
}

// TestKrylovStallBandAcceptsRoundingFloor: with a tolerance no residual
// can reach, the Krylov rung still answers, because a restart that no
// longer lowers a residual within the power rung's stall band (1e-12) is
// the rounding floor; the answer agrees with the dense reference.
func TestKrylovStallBandAcceptsRoundingFloor(t *testing.T) {
	g := sixVersion(t, nvp.NewModelCache(), 12, 0)
	want, err := mrgp.SolveDenseWS(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mrgp.SolveSparseGMRES(g, mrgp.KrylovRestart, 0)
	if err != nil {
		t.Fatalf("unreachable tolerance: %v, want acceptance at the rounding floor", err)
	}
	if d := maxAbsDiff(got.Pi, want.Pi); d > 1e-12 {
		t.Errorf("|pi - dense|_inf = %.3g after %d applications", d, got.Cycles)
	}
}

// TestKrylovStagnationFailsFast: a restart that does not lower a residual
// above the stall band fails the rung at once with a typed not-converged
// error, instead of spending the budget on restarts that repeat the same
// cycle. GMRES(2) stagnates near 1e-1 on the six-version N=12 model at a
// 30 s clock.
func TestKrylovStagnationFailsFast(t *testing.T) {
	g := sixVersion(t, nvp.NewModelCache(), 12, 30)
	prev := obs.Enable()
	defer obs.SetEnabled(prev)
	applies := obs.CounterFor("mrgp.power.cycles")
	before := applies.Value()
	_, err := mrgp.SolveSparseGMRES(g, 2, 1e-14)
	se, ok := linalg.AsSolveError(err)
	if !ok || se.Kind != linalg.FailNotConverged || se.Residual <= 1e-12 || !strings.Contains(err.Error(), "stagnated") {
		t.Fatalf("GMRES(2) gave %v, want a typed stagnation above the stall band", err)
	}
	if n := applies.Value() - before; n > 30 {
		t.Errorf("stagnation took %d applications of P to detect, want at most 30", n)
	}
}
