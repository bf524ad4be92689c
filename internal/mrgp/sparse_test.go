package mrgp

import (
	"math"
	"math/rand"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// buildClockedPopulation builds a clock-synchronous DSPN with a population
// of size modules cycling fresh -> degraded -> down -> fresh at exponential
// rates, plus a deterministic clock (period tau) whose firing restores all
// degraded modules instantly. Every tangible marking enables the clock, so
// the model is in Solve's regeneration class, and the state space grows
// quadratically with the population — enough to exercise the sparse path.
func buildClockedPopulation(t testing.TB, modules int, tau float64) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("clocked-population")
	fresh := b.AddPlace("fresh", modules)
	deg := b.AddPlace("deg", 0)
	down := b.AddPlace("down", 0)
	clock := b.AddPlace("clock", 1)
	fired := b.AddPlace("fired", 0)
	b.AddTransition(petri.Spec{
		Name: "degrade", Kind: petri.Exponential, Rate: 1.0 / 40,
		Inputs:  []petri.Arc{{Place: fresh}},
		Outputs: []petri.Arc{{Place: deg}},
	})
	b.AddTransition(petri.Spec{
		Name: "fail", Kind: petri.Exponential, Rate: 1.0 / 25,
		Inputs:  []petri.Arc{{Place: deg}},
		Outputs: []petri.Arc{{Place: down}},
	})
	b.AddTransition(petri.Spec{
		Name: "repair", Kind: petri.Exponential, Rate: 1.0 / 2,
		Inputs:  []petri.Arc{{Place: down}},
		Outputs: []petri.Arc{{Place: fresh}},
	})
	b.AddTransition(petri.Spec{
		Name: "tick", Kind: petri.Deterministic, Delay: tau,
		Inputs:  []petri.Arc{{Place: clock}},
		Outputs: []petri.Arc{{Place: fired}},
	})
	b.AddTransition(petri.Spec{
		Name: "sweep", Kind: petri.Immediate, Rate: 1, Priority: 2,
		Guard:   func(m petri.Marking) bool { return m[deg] > 0 },
		Inputs:  []petri.Arc{{Place: fired}, {Place: deg, WeightFn: func(m petri.Marking) int { return m[deg] }}},
		Outputs: []petri.Arc{{Place: clock}, {Place: fresh, WeightFn: func(m petri.Marking) int { return m[deg] }}},
	})
	b.AddTransition(petri.Spec{
		Name: "rearm", Kind: petri.Immediate, Rate: 1, Priority: 1,
		Inputs:  []petri.Arc{{Place: fired}},
		Outputs: []petri.Arc{{Place: clock}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// TestSolveSparseMatchesDense: the matrix-free solver must agree with the
// dense reference to 1e-12 across model shapes and clock periods.
func TestSolveSparseMatchesDense(t *testing.T) {
	tests := []struct {
		name    string
		net     *petri.Net
		modules int
	}{
		{name: "toy frequent clock", net: buildRejuvenationToy(t, 0.1, 1)},
		{name: "toy rare clock", net: buildRejuvenationToy(t, 2, 10)},
		{name: "toy paper scales", net: buildRejuvenationToy(t, 1.0/1523, 600)},
		{name: "population small", net: buildClockedPopulation(t, 4, 15)},
		{name: "population larger", net: buildClockedPopulation(t, 9, 30)},
	}
	ws := linalg.NewWorkspace()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := explore(t, tt.net)
			want, err := SolveDenseWS(ws, g)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			got, err := SolveSparseSeededCtxWS(nil, ws, g, nil)
			if err != nil {
				t.Fatalf("sparse: %v", err)
			}
			if got.Delay != want.Delay {
				t.Errorf("Delay = %g, want %g", got.Delay, want.Delay)
			}
			for i := range want.Pi {
				if math.Abs(got.Pi[i]-want.Pi[i]) > 1e-12 {
					t.Errorf("Pi[%d] = %.17g, want %.17g (diff %g)", i, got.Pi[i], want.Pi[i], got.Pi[i]-want.Pi[i])
				}
				if math.Abs(got.Embedded[i]-want.Embedded[i]) > 1e-12 {
					t.Errorf("Embedded[%d] = %.17g, want %.17g", i, got.Embedded[i], want.Embedded[i])
				}
			}
		})
	}
}

// TestSolveRoutesThroughSparse: above the threshold Solve must produce
// the sparse result; the two paths already agree to 1e-12, so just pin the
// routing by lowering the threshold.
func TestSolveRoutesThroughSparse(t *testing.T) {
	g := explore(t, buildClockedPopulation(t, 4, 15))
	prev := linalg.SparseThreshold
	defer func() { linalg.SparseThreshold = prev }()

	linalg.SparseThreshold = 1 << 30
	dense, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("dense route: %v", err)
	}
	linalg.SparseThreshold = 1
	sparse, _, err := Solve(nil, nil, g, Opts{})
	if err != nil {
		t.Fatalf("sparse route: %v", err)
	}
	var diff float64
	for i := range dense.Pi {
		diff = math.Max(diff, math.Abs(dense.Pi[i]-sparse.Pi[i]))
	}
	if diff > 1e-12 {
		t.Errorf("routes disagree by %g", diff)
	}
}

// TestTransientPairCSRMatchesDense: the CSR-subordinated series must match
// the dense scaling-and-doubling pair to 1e-12 entrywise.
func TestTransientPairCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := linalg.NewWorkspace()
	for rep := 0; rep < 8; rep++ {
		n := 2 + rng.Intn(25)
		q := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			add := func(j int) {
				rate := math.Pow(10, -2+3*rng.Float64())
				q.Add(i, j, rate)
				q.Add(i, i, -rate)
			}
			add((i + 1) % n)
			if j := rng.Intn(n); j != i {
				add(j)
			}
		}
		for _, horizon := range []float64{0.5, 20, 400} {
			tmD, umD, err := transientPairDense(ws, q, horizon)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			tmS, umS, err := transientPairCSR(ws, linalg.CSRFromDense(q), horizon)
			if err != nil {
				t.Fatalf("csr: %v", err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(tmS.At(i, j) - tmD.At(i, j)); d > 1e-12 {
						t.Fatalf("rep %d t=%g: T[%d][%d] differs by %g", rep, horizon, i, j, d)
					}
					if d := math.Abs(umS.At(i, j) - umD.At(i, j)); d > 1e-12*(1+horizon) {
						t.Fatalf("rep %d t=%g: U[%d][%d] differs by %g", rep, horizon, i, j, d)
					}
				}
			}
			ws.PutMat(tmD)
			ws.PutMat(umD)
			ws.PutMat(tmS)
			ws.PutMat(umS)
		}
	}
}
