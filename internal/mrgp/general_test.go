package mrgp

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/petri"
)

func TestSolveGeneralMatchesSolveOnToy(t *testing.T) {
	tests := []struct {
		name        string
		lambda, tau float64
	}{
		{name: "fast clock", lambda: 0.3, tau: 0.5},
		{name: "slow clock", lambda: 1.2, tau: 8},
		{name: "paper scales", lambda: 1.0 / 1523, tau: 600},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := buildRejuvenationToy(t, tt.lambda, tt.tau)
			g := explore(t, n)
			specialized, _, err := Solve(nil, nil, g, Opts{})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			general, err := SolveGeneral(nil, nil, g)
			if err != nil {
				t.Fatalf("SolveGeneral: %v", err)
			}
			for s := range specialized.Pi {
				if math.Abs(specialized.Pi[s]-general.Pi[s]) > 1e-9 {
					t.Errorf("state %d: specialized %.12g vs general %.12g",
						s, specialized.Pi[s], general.Pi[s])
				}
			}
		})
	}
}

func TestSolveGeneralMatchesSolveOnIdentityClock(t *testing.T) {
	n := buildIdentityClock(t, 4, 2, 3, 1.7)
	g := explore(t, n)
	specialized, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	general, err := SolveGeneral(nil, nil, g)
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	for s := range specialized.Pi {
		if math.Abs(specialized.Pi[s]-general.Pi[s]) > 1e-9 {
			t.Errorf("state %d: %.12g vs %.12g", s, specialized.Pi[s], general.Pi[s])
		}
	}
}

// buildGatedClock is the net Solve rejects: the deterministic transition
// is enabled only while a gate place is marked. The closed form for the
// gate-state probability is 1/2 at lambda = mu = 1 regardless of the
// delay (see the derivation in the test body).
func buildGatedClock(t *testing.T, lam, mu, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("gated")
	gate := b.AddPlace("gate", 1)
	other := b.AddPlace("other", 0)
	b.AddTransition(petri.Spec{
		Name: "det", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: gate}},
		Outputs: []petri.Arc{{Place: gate}},
	})
	b.AddTransition(petri.Spec{
		Name: "close", Kind: petri.Exponential, Rate: lam,
		Inputs:  []petri.Arc{{Place: gate}},
		Outputs: []petri.Arc{{Place: other}},
	})
	b.AddTransition(petri.Spec{
		Name: "open", Kind: petri.Exponential, Rate: mu,
		Inputs:  []petri.Arc{{Place: other}},
		Outputs: []petri.Arc{{Place: gate}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestSolveGeneralGatedClock(t *testing.T) {
	// The deterministic firing is a no-op (gate -> gate), so the visible
	// process is simply the two-state CTMC: P(gate) = mu/(lam+mu). The
	// general solver must agree despite the internal timer bookkeeping.
	tests := []struct {
		lam, mu, tau float64
	}{
		{lam: 1, mu: 1, tau: 5},
		{lam: 0.25, mu: 2, tau: 1},
		{lam: 3, mu: 0.5, tau: 0.2},
	}
	for _, tt := range tests {
		n := buildGatedClock(t, tt.lam, tt.mu, tt.tau)
		g := explore(t, n)
		if _, _, err := Solve(nil, nil, g, Opts{}); !errors.Is(err, ErrClockNotAlwaysEnabled) {
			t.Fatalf("Solve should reject the gated clock, got %v", err)
		}
		sol, err := SolveGeneral(nil, nil, g)
		if err != nil {
			t.Fatalf("SolveGeneral: %v", err)
		}
		gateIdx, ok := g.StateIndex(n.InitialMarking())
		if !ok {
			t.Fatal("gate state missing")
		}
		want := tt.mu / (tt.lam + tt.mu)
		if math.Abs(sol.Pi[gateIdx]-want) > 1e-9 {
			t.Errorf("lam=%g mu=%g tau=%g: P(gate) = %.12g, want %.12g",
				tt.lam, tt.mu, tt.tau, sol.Pi[gateIdx], want)
		}
	}
}

// buildDeferredRestore models a repairable component where the
// deterministic transition matters: the component fails at rate lam; a
// deterministic inspection (delay tau, enabled only while failed) restores
// it. P(up) = E[up time]/(E[up]+tau) = (1/lam)/(1/lam + tau).
func buildDeferredRestore(t *testing.T, lam, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("deferred-restore")
	up := b.AddPlace("up", 1)
	down := b.AddPlace("down", 0)
	b.AddTransition(petri.Spec{
		Name: "fail", Kind: petri.Exponential, Rate: lam,
		Inputs:  []petri.Arc{{Place: up}},
		Outputs: []petri.Arc{{Place: down}},
	})
	b.AddTransition(petri.Spec{
		Name: "inspectRestore", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: down}},
		Outputs: []petri.Arc{{Place: up}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestSolveGeneralDeferredRestore(t *testing.T) {
	for _, tt := range []struct{ lam, tau float64 }{
		{lam: 1, tau: 1},
		{lam: 0.1, tau: 4},
		{lam: 5, tau: 0.25},
	} {
		n := buildDeferredRestore(t, tt.lam, tt.tau)
		g := explore(t, n)
		sol, err := SolveGeneral(nil, nil, g)
		if err != nil {
			t.Fatalf("SolveGeneral: %v", err)
		}
		upIdx, ok := g.StateIndex(n.InitialMarking())
		if !ok {
			t.Fatal("up state missing")
		}
		want := (1 / tt.lam) / (1/tt.lam + tt.tau)
		if math.Abs(sol.Pi[upIdx]-want) > 1e-9 {
			t.Errorf("lam=%g tau=%g: P(up) = %.12g, want %.12g", tt.lam, tt.tau, sol.Pi[upIdx], want)
		}
	}
}

func TestSolveGeneralRejectsPureCTMC(t *testing.T) {
	n := buildMM1KForGeneral(t)
	g := explore(t, n)
	if _, err := SolveGeneral(nil, nil, g); !errors.Is(err, ErrNoDeterministic) {
		t.Errorf("err = %v, want ErrNoDeterministic", err)
	}
}

func buildMM1KForGeneral(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("mm1k")
	q := b.AddPlace("q", 0)
	f := b.AddPlace("f", 2)
	b.AddTransition(petri.Spec{
		Name: "a", Kind: petri.Exponential, Rate: 1,
		Inputs: []petri.Arc{{Place: f}}, Outputs: []petri.Arc{{Place: q}},
	})
	b.AddTransition(petri.Spec{
		Name: "s", Kind: petri.Exponential, Rate: 1,
		Inputs: []petri.Arc{{Place: q}}, Outputs: []petri.Arc{{Place: f}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSolveGeneralDetectsDeadlock(t *testing.T) {
	// A state with no timed transitions at all: token moves to a sink.
	b := petri.NewBuilder("deadlock")
	src := b.AddPlace("src", 1)
	sink := b.AddPlace("sink", 0)
	clock := b.AddPlace("clock", 1)
	b.AddTransition(petri.Spec{
		Name: "drain", Kind: petri.Exponential, Rate: 1,
		Inputs:  []petri.Arc{{Place: src}},
		Outputs: []petri.Arc{{Place: sink}},
	})
	// Deterministic transition enabled only while src is marked; once the
	// token drains, nothing is enabled.
	b.AddTransition(petri.Spec{
		Name: "det", Kind: petri.Deterministic, Delay: 1,
		Guard:   func(m petri.Marking) bool { return m[src] > 0 },
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: clock}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := explore(t, n)
	if _, err := SolveGeneral(nil, nil, g); !errors.Is(err, ErrNoTimedTransitions) {
		t.Errorf("err = %v, want ErrNoTimedTransitions", err)
	}
}

func TestSolveGeneralMixedDelays(t *testing.T) {
	// Two deterministic phases with different delays, linked by
	// exponential escapes: a 2-phase alternating system.
	// Phase A (delay 1) fires -> B; phase B (delay 2) fires -> A.
	// No exponentials: cycle is deterministic with period 3.
	b := petri.NewBuilder("two-phase")
	a := b.AddPlace("a", 1)
	c := b.AddPlace("c", 0)
	b.AddTransition(petri.Spec{
		Name: "ab", Kind: petri.Deterministic, Delay: 1,
		Inputs:  []petri.Arc{{Place: a}},
		Outputs: []petri.Arc{{Place: c}},
	})
	b.AddTransition(petri.Spec{
		Name: "ba", Kind: petri.Deterministic, Delay: 2,
		Inputs:  []petri.Arc{{Place: c}},
		Outputs: []petri.Arc{{Place: a}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := explore(t, n)
	if _, _, err := Solve(nil, nil, g, Opts{}); !errors.Is(err, ErrMixedClocks) {
		t.Fatalf("Solve should reject mixed delays, got %v", err)
	}
	sol, err := SolveGeneral(nil, nil, g)
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	aIdx, ok := g.StateIndex(n.InitialMarking())
	if !ok {
		t.Fatal("state a missing")
	}
	if math.Abs(sol.Pi[aIdx]-1.0/3) > 1e-9 {
		t.Errorf("P(a) = %.12g, want 1/3", sol.Pi[aIdx])
	}
}
