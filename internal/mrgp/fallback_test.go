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

// armMrgpFault arms one fault and enables injection for the test body.
func armMrgpFault(t *testing.T, f faultinject.Fault) {
	t.Helper()
	faultinject.Reset()
	if err := faultinject.Arm(f, 9); err != nil {
		t.Fatal(err)
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

// TestSparseFailsTypedUnderInjectedStall: the sparse solver alone surfaces
// an injected embedded-power stall as a typed not-converged SolveError.
func TestSparseFailsTypedUnderInjectedStall(t *testing.T) {
	g, _ := sparseRoutedGraph(t)
	armMrgpFault(t, faultinject.Fault{Site: "mrgp.power.stall"})
	_, err := SolveSparseSeededCtxWS(nil, nil, g, nil)
	se, ok := linalg.AsSolveError(err)
	if !ok || se.Kind != linalg.FailNotConverged {
		t.Fatalf("injected stall gave %v", err)
	}
}

// TestSolveRecoversFromInjectedPowerStall: Solve falls back to the dense
// path after the injected sparse failure, the result matches the dense
// reference, and the recovered_dense counter distinguishes the rescue
// from plain size routing (the satellite-3 contract).
func TestSolveRecoversFromInjectedPowerStall(t *testing.T) {
	g, dense := sparseRoutedGraph(t)
	prevObs := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() { obs.SetEnabled(prevObs) })
	routedSparse0 := obs.CounterFor("mrgp.solve.routed_sparse").Value()
	routedDense0 := obs.CounterFor("mrgp.solve.routed_dense").Value()
	recovered0 := obs.CounterFor("mrgp.solve.recovered_dense").Value()
	fallback0 := obs.CounterFor("mrgp.solve.fallback_dense").Value()

	armMrgpFault(t, faultinject.Fault{Site: "mrgp.power.stall"})
	sol, diag, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve did not recover: %v", err)
	}
	if diag.Path != petri.PathSparseFallbackDense || diag.Fallback == nil {
		t.Fatalf("diag path = %v fallback = %v, want sparse-fallback-dense with the sparse failure", diag.Path, diag.Fallback)
	}
	if len(diag.Attempts) != 1 || diag.Attempts[0].Solver != "sparse" {
		t.Fatalf("attempts = %+v, want one failed sparse attempt", diag.Attempts)
	}
	for i := range sol.Pi {
		if math.Abs(sol.Pi[i]-dense.Pi[i]) > 1e-12 {
			t.Fatalf("Pi[%d] = %.17g, dense reference %.17g", i, sol.Pi[i], dense.Pi[i])
		}
	}
	if d := obs.CounterFor("mrgp.solve.routed_sparse").Value() - routedSparse0; d != 1 {
		t.Errorf("routed_sparse delta = %d, want 1", d)
	}
	if d := obs.CounterFor("mrgp.solve.routed_dense").Value() - routedDense0; d != 0 {
		t.Errorf("routed_dense delta = %d, want 0 (a rescue is not a routing decision)", d)
	}
	if d := obs.CounterFor("mrgp.solve.recovered_dense").Value() - recovered0; d != 1 {
		t.Errorf("recovered_dense delta = %d, want 1", d)
	}
	if d := obs.CounterFor("mrgp.solve.fallback_dense").Value() - fallback0; d != 1 {
		t.Errorf("fallback_dense delta = %d, want 1", d)
	}
}

// TestSolveRecoversFromInjectedPanic: a panic inside the embedded cycle
// loop is recovered and the dense rung produces the result.
func TestSolveRecoversFromInjectedPanic(t *testing.T) {
	g, dense := sparseRoutedGraph(t)
	armMrgpFault(t, faultinject.Fault{Site: "mrgp.kernel.panic"})
	sol, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve did not recover from the panic: %v", err)
	}
	for i := range sol.Pi {
		if math.Abs(sol.Pi[i]-dense.Pi[i]) > 1e-12 {
			t.Fatalf("Pi[%d] deviates from the dense reference", i)
		}
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
