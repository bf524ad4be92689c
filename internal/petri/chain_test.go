package petri

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
)

// armFault arms one fault and enables injection for the test body.
func armFault(t *testing.T, f faultinject.Fault) {
	t.Helper()
	faultinject.Reset()
	if err := faultinject.Arm(f, 7); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
}

// chainGraph builds a sparse-routed graph plus its clean reference
// solutions (GS path and dense GTH path).
func chainGraph(t *testing.T, seed int64) (*Graph, *linalg.Workspace, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomReachabilityGraph(rng, linalg.SparseThreshold+40)
	ws := linalg.NewWorkspace()
	clean, diag, err := g.Solve(nil, ws, Opts{})
	if err != nil || diag.Path != PathSparse {
		t.Fatalf("clean solve: path=%v err=%v", diag.Path, err)
	}
	dense, _, err := g.Solve(nil, ws, Opts{Rung: "gth"})
	if err != nil {
		t.Fatal(err)
	}
	return g, ws, clean, dense
}

// TestChainRecoversFromInjectedGSStall: a forced mid-solve Gauss-Seidel
// failure falls back to dense GTH, records the failed attempt, and the
// recovered result matches the single-path dense reference to 1e-12 (the
// satellite chain-equality property).
func TestChainRecoversFromInjectedGSStall(t *testing.T) {
	g, ws, clean, dense := chainGraph(t, 61)
	armFault(t, faultinject.Fault{Site: "linalg.gs.stall"})
	pi, diag, err := g.Solve(nil, ws, Opts{})
	if err != nil {
		t.Fatalf("chain did not recover: %v", err)
	}
	if diag.Path != PathSparseFallbackDense {
		t.Fatalf("path = %v, want %v", diag.Path, PathSparseFallbackDense)
	}
	if len(diag.Attempts) != 1 || diag.Attempts[0].Solver != "gs" || diag.Attempts[0].Err == nil {
		t.Fatalf("attempts = %+v, want one failed gs attempt", diag.Attempts)
	}
	se, ok := linalg.AsSolveError(diag.Fallback)
	if !ok || se.Kind != linalg.FailNotConverged {
		t.Fatalf("fallback error = %v, want typed not-converged", diag.Fallback)
	}
	for i := range pi {
		if math.Abs(pi[i]-dense[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %.17g, dense reference %.17g", i, pi[i], dense[i])
		}
		if math.Abs(pi[i]-clean[i]) > 1e-9 {
			t.Fatalf("pi[%d] deviates %g from the clean GS result", i, math.Abs(pi[i]-clean[i]))
		}
	}
}

// TestChainRecoversFromCorruptedStamp: a NaN written into the CSR stamp is
// rejected by the generator guard before any iteration, and the chain
// recovers through the independently assembled dense generator.
func TestChainRecoversFromCorruptedStamp(t *testing.T) {
	g, ws, _, dense := chainGraph(t, 62)
	armFault(t, faultinject.Fault{Site: "petri.stamp.corrupt", Mode: "nan"})
	pi, diag, err := g.Solve(nil, ws, Opts{})
	if err != nil {
		t.Fatalf("chain did not recover: %v", err)
	}
	if diag.Path != PathSparseFallbackDense {
		t.Fatalf("path = %v, want %v", diag.Path, PathSparseFallbackDense)
	}
	se, ok := linalg.AsSolveError(diag.Fallback)
	if !ok || se.Kind != linalg.FailNaN {
		t.Fatalf("fallback error = %v, want typed NaN rejection", diag.Fallback)
	}
	if diag.GSSweeps != 0 {
		t.Fatalf("GSSweeps = %d, want 0 (rejected before iterating)", diag.GSSweeps)
	}
	for i := range pi {
		if math.Abs(pi[i]-dense[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %.17g, dense reference %.17g", i, pi[i], dense[i])
		}
	}
}

// TestChainRecoversFromSilentRateScale: the nastiest fault — one rate
// silently multiplied by 1.75, sign pattern intact — is still caught by
// the conservation check and recovered, never returned as a wrong number.
func TestChainRecoversFromSilentRateScale(t *testing.T) {
	g, ws, _, dense := chainGraph(t, 63)
	armFault(t, faultinject.Fault{Site: "petri.stamp.corrupt", Mode: "scale", Value: 1.75})
	pi, diag, err := g.Solve(nil, ws, Opts{})
	if err != nil {
		t.Fatalf("chain did not recover: %v", err)
	}
	se, ok := linalg.AsSolveError(diag.Fallback)
	if !ok || se.Kind != linalg.FailGenerator {
		t.Fatalf("fallback error = %v, want typed generator rejection", diag.Fallback)
	}
	for i := range pi {
		if math.Abs(pi[i]-dense[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %.17g, dense reference %.17g", i, pi[i], dense[i])
		}
	}
}

// TestChainRecoversFromKernelPanic: an injected panic inside the GS kernel
// is recovered, converted to a typed FailPanic, and the solve completes on
// the dense rung. A panic must never abort the caller.
func TestChainRecoversFromKernelPanic(t *testing.T) {
	g, ws, _, dense := chainGraph(t, 64)
	armFault(t, faultinject.Fault{Site: "linalg.kernel.panic"})
	pi, diag, err := g.Solve(nil, ws, Opts{})
	if err != nil {
		t.Fatalf("chain did not recover: %v", err)
	}
	se, ok := linalg.AsSolveError(diag.Fallback)
	if !ok || se.Kind != linalg.FailPanic {
		t.Fatalf("fallback error = %v, want typed panic", diag.Fallback)
	}
	for i := range pi {
		if math.Abs(pi[i]-dense[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %.17g, dense reference %.17g", i, pi[i], dense[i])
		}
	}
}

// TestChainDeadlineStopsFallback: once the context is dead, the chain
// surfaces the typed deadline error instead of burning the remaining rungs
// against an expired clock.
func TestChainDeadlineStopsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g := randomReachabilityGraph(rng, linalg.SparseThreshold+40)
	ws := linalg.NewWorkspace()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, diag, err := g.Solve(ctx, ws, Opts{})
	se, ok := linalg.AsSolveError(err)
	if !ok || se.Kind != linalg.FailDeadline {
		t.Fatalf("expired ctx gave %v", err)
	}
	if len(diag.Attempts) > 1 {
		t.Fatalf("chain kept going after a deadline: %+v", diag.Attempts)
	}
}

// TestSolvePathStringNew: labels of the power-backstop paths.
func TestSolvePathStringNew(t *testing.T) {
	cases := map[SolvePath]string{
		PathDenseFallbackPower:  "dense-fallback-power",
		PathSparseFallbackPower: "sparse-fallback-power",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("SolvePath(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}
