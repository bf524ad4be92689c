package mrgp

import (
	"context"
	"math"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// armMrgpFault arms the faults and enables injection for the test body.
func armMrgpFault(t *testing.T, faults ...faultinject.Fault) {
	t.Helper()
	faultinject.Reset()
	for _, f := range faults {
		if err := faultinject.Arm(f, 9); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
}

// sparseRoutedGraph returns a clocked DSPN with the threshold dropped so
// Solve routes it through the sparse solver, plus its dense reference.
func sparseRoutedGraph(t *testing.T) (*petri.Graph, *Solution) {
	t.Helper()
	g := explore(t, buildClockedPopulation(t, 4, 15))
	prev := linalg.SparseThreshold
	linalg.SparseThreshold = 1
	t.Cleanup(func() { linalg.SparseThreshold = prev })
	dense, err := SolveDenseWS(nil, g)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	return g, dense
}

// TestSparseFailsTypedUnderInjectedStall: each sparse rung alone surfaces
// an injected stall as a typed not-converged SolveError — the Krylov rung
// at mrgp.krylov.stall, the power rung at mrgp.power.stall.
func TestSparseFailsTypedUnderInjectedStall(t *testing.T) {
	g, _ := sparseRoutedGraph(t)
	for _, tc := range []struct {
		site  string
		solve func(*petri.Graph) (*Solution, error)
	}{
		{"mrgp.krylov.stall", func(g *petri.Graph) (*Solution, error) { return SolveSparseSeededCtxWS(nil, nil, g, nil) }},
		{"mrgp.power.stall", func(g *petri.Graph) (*Solution, error) { return solveSparsePower(nil, nil, g) }},
	} {
		armMrgpFault(t, faultinject.Fault{Site: tc.site})
		_, err := tc.solve(g)
		se, ok := linalg.AsSolveError(err)
		if !ok || se.Kind != linalg.FailNotConverged {
			t.Fatalf("injected %s gave %v", tc.site, err)
		}
	}
}

// mrgpCounters reads the routing and recovery counters of Solve.
func mrgpCounters() map[string]int64 {
	c := map[string]int64{}
	for _, name := range []string{"routed_sparse", "routed_dense", "recovered_power", "recovered_dense", "fallback_dense"} {
		c[name] = obs.CounterFor("mrgp.solve." + name).Value()
	}
	return c
}

// checkCounterDeltas compares the counter deltas since before with want.
func checkCounterDeltas(t *testing.T, before map[string]int64, want map[string]int64) {
	t.Helper()
	after := mrgpCounters()
	for name, w := range want {
		if d := after[name] - before[name]; d != w {
			t.Errorf("%s delta = %d, want %d", name, d, w)
		}
	}
}

// enableObs turns metrics on for the test body.
func enableObs(t *testing.T) {
	t.Helper()
	prevObs := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
}

// TestSolveRecoversFromInjectedPowerStall: with both sparse rungs stalled,
// Solve falls back to the dense path, the result matches the dense
// reference, and the recovered_dense counter distinguishes the rescue
// from plain size routing.
func TestSolveRecoversFromInjectedPowerStall(t *testing.T) {
	g, dense := sparseRoutedGraph(t)
	enableObs(t)
	before := mrgpCounters()

	armMrgpFault(t, faultinject.Fault{Site: "mrgp.krylov.stall"}, faultinject.Fault{Site: "mrgp.power.stall"})
	sol, diag, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve did not recover: %v", err)
	}
	if diag.Path != petri.PathSparseFallbackDense || diag.Fallback == nil {
		t.Fatalf("diag path = %v fallback = %v, want sparse-fallback-dense with the sparse failure", diag.Path, diag.Fallback)
	}
	if len(diag.Attempts) != 2 || diag.Attempts[0].Solver != "sparse" || diag.Attempts[1].Solver != "power" {
		t.Fatalf("attempts = %+v, want failed sparse and power attempts", diag.Attempts)
	}
	for i := range sol.Pi {
		if math.Abs(sol.Pi[i]-dense.Pi[i]) > 1e-12 {
			t.Fatalf("Pi[%d] = %.17g, dense reference %.17g", i, sol.Pi[i], dense.Pi[i])
		}
	}
	// A rescue is not a routing decision: routed_dense stays put.
	checkCounterDeltas(t, before, map[string]int64{
		"routed_sparse": 1, "routed_dense": 0, "recovered_power": 0, "recovered_dense": 1, "fallback_dense": 1,
	})
}

// TestSolveFallsBackToPowerUnderInjectedKrylovStall: a stalled Krylov
// rung is rescued by the power rung, which answers on the same
// matrix-free chain: path sparse-fallback-power, one failed sparse
// attempt, the power cycles in PowerIters, and the dense answer to 1e-12.
func TestSolveFallsBackToPowerUnderInjectedKrylovStall(t *testing.T) {
	g, dense := sparseRoutedGraph(t)
	enableObs(t)
	before := mrgpCounters()

	armMrgpFault(t, faultinject.Fault{Site: "mrgp.krylov.stall"})
	sol, diag, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve did not recover: %v", err)
	}
	if diag.Path != petri.PathSparseFallbackPower || diag.Path.String() != "sparse-fallback-power" || diag.Fallback == nil {
		t.Fatalf("diag path = %v fallback = %v, want sparse-fallback-power with the Krylov failure", diag.Path, diag.Fallback)
	}
	if len(diag.Attempts) != 1 || diag.Attempts[0].Solver != "sparse" {
		t.Fatalf("attempts = %+v, want one failed sparse attempt", diag.Attempts)
	}
	if diag.PowerIters == 0 || diag.PowerIters != sol.Cycles {
		t.Errorf("PowerIters = %d, Cycles = %d, want the power rung's nonzero cycle count", diag.PowerIters, sol.Cycles)
	}
	for i := range sol.Pi {
		if math.Abs(sol.Pi[i]-dense.Pi[i]) > 1e-12 {
			t.Fatalf("Pi[%d] = %.17g, dense reference %.17g", i, sol.Pi[i], dense.Pi[i])
		}
	}
	checkCounterDeltas(t, before, map[string]int64{
		"routed_sparse": 1, "recovered_power": 1, "recovered_dense": 0, "fallback_dense": 1,
	})
}

// TestSolveRecoversFromInjectedPanic: a panic inside the Krylov loop is
// recovered into a typed failure and the power rung produces the result.
func TestSolveRecoversFromInjectedPanic(t *testing.T) {
	g, dense := sparseRoutedGraph(t)
	armMrgpFault(t, faultinject.Fault{Site: "mrgp.kernel.panic"})
	sol, diag, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve did not recover from the panic: %v", err)
	}
	if se, ok := linalg.AsSolveError(diag.Fallback); !ok || se.Kind != linalg.FailPanic || diag.Path != petri.PathSparseFallbackPower {
		t.Fatalf("diag path = %v fallback = %v, want sparse-fallback-power after a recovered panic", diag.Path, diag.Fallback)
	}
	for i := range sol.Pi {
		if math.Abs(sol.Pi[i]-dense.Pi[i]) > 1e-12 {
			t.Fatalf("Pi[%d] deviates from the dense reference", i)
		}
	}
}

// TestNamedRungs: a named sparse or dense solve runs that rung alone and
// reports its path; the power rung is a fallback only and cannot be named.
func TestNamedRungs(t *testing.T) {
	g, _ := sparseRoutedGraph(t)
	for rung, want := range map[string]petri.SolvePath{"sparse": petri.PathSparse, "dense": petri.PathDense} {
		_, diag, err := Solve(nil, nil, g, Opts{Rung: rung})
		if err != nil || diag.Path != want || diag.Fallback != nil {
			t.Errorf("named %s: path %v fallback %v err %v, want path %v", rung, diag.Path, diag.Fallback, err, want)
		}
	}
	if _, _, err := Solve(nil, nil, g, Opts{Rung: "power"}); err == nil {
		t.Error("named power solve succeeded, want an unknown-rung error")
	}
}

// TestSolveCtxDeadline: an expired context surfaces as a typed deadline
// failure without falling back.
func TestSolveCtxDeadline(t *testing.T) {
	g, _ := sparseRoutedGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, _, err := Solve(ctx, nil, g, Opts{})
	se, ok := linalg.AsSolveError(err)
	if !ok || se.Kind != linalg.FailDeadline {
		t.Fatalf("expired ctx gave %v", err)
	}
}
