package petri

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/linalg"
)

// buildMM1K constructs an M/M/1/K queue net.
func buildMM1K(t *testing.T, k int, lam, mu float64) *Net {
	t.Helper()
	b := NewBuilder("mm1k")
	queue := b.AddPlace("queue", 0)
	free := b.AddPlace("free", k)
	b.AddTransition(Spec{
		Name: "arrive", Kind: Exponential, Rate: lam,
		Inputs:  []Arc{{Place: free}},
		Outputs: []Arc{{Place: queue}},
	})
	b.AddTransition(Spec{
		Name: "serve", Kind: Exponential, Rate: mu,
		Inputs:  []Arc{{Place: queue}},
		Outputs: []Arc{{Place: free}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestExploreMM1K(t *testing.T) {
	const (
		k   = 4
		lam = 2.0
		mu  = 3.0
	)
	n := buildMM1K(t, k, lam, mu)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.NumStates() != k+1 {
		t.Fatalf("NumStates = %d, want %d", g.NumStates(), k+1)
	}
	pi, _, err := g.Solve(nil, nil, Opts{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	// Compare against the analytic M/M/1/K distribution, keyed by queue
	// length (place 0).
	rho := lam / mu
	var norm float64
	for i := 0; i <= k; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for s, m := range g.Markings {
		want := math.Pow(rho, float64(m[0])) / norm
		if math.Abs(pi[s]-want) > 1e-12 {
			t.Errorf("pi(queue=%d) = %g, want %g", m[0], pi[s], want)
		}
	}
}

func TestExploreInitialDistribution(t *testing.T) {
	n := buildMM1K(t, 2, 1, 1)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(g.Initial) != g.NumStates() {
		t.Fatalf("Initial length = %d, states = %d", len(g.Initial), g.NumStates())
	}
	init, ok := g.StateIndex(n.InitialMarking())
	if !ok {
		t.Fatal("initial marking not in graph")
	}
	for s, p := range g.Initial {
		want := 0.0
		if s == init {
			want = 1
		}
		if p != want {
			t.Errorf("Initial[%d] = %g, want %g", s, p, want)
		}
	}
}

func TestExploreVanishingElimination(t *testing.T) {
	// An exponential firing lands in a vanishing marking that forks through
	// two weighted immediates (w=1 and w=3) to different tangible markings.
	b := NewBuilder("fork")
	start := b.AddPlace("start", 1)
	mid := b.AddPlace("mid", 0)
	left := b.AddPlace("left", 0)
	right := b.AddPlace("right", 0)
	b.AddTransition(Spec{
		Name: "go", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: start}},
		Outputs: []Arc{{Place: mid}},
	})
	b.AddTransition(Spec{
		Name: "pickLeft", Kind: Immediate, Rate: 1,
		Inputs:  []Arc{{Place: mid}},
		Outputs: []Arc{{Place: left}},
	})
	b.AddTransition(Spec{
		Name: "pickRight", Kind: Immediate, Rate: 3,
		Inputs:  []Arc{{Place: mid}},
		Outputs: []Arc{{Place: right}},
	})
	// Return transitions keep the chain irreducible.
	b.AddTransition(Spec{
		Name: "backL", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: left}},
		Outputs: []Arc{{Place: start}},
	})
	b.AddTransition(Spec{
		Name: "backR", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: right}},
		Outputs: []Arc{{Place: start}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	// Tangible markings: start, left, right. The vanishing mid marking must
	// not appear.
	if g.NumStates() != 3 {
		t.Fatalf("NumStates = %d, want 3", g.NumStates())
	}
	for _, m := range g.Markings {
		if m[mid] != 0 {
			t.Errorf("vanishing marking leaked into graph: %v", m)
		}
	}
	// Rate split must follow the immediate weights: 1/4 vs 3/4.
	var rateLeft, rateRight float64
	startIdx, _ := g.StateIndex(n.InitialMarking())
	for _, e := range g.Exp {
		if e.From != startIdx {
			continue
		}
		switch {
		case g.Markings[e.To][left] == 1:
			rateLeft += e.Rate
		case g.Markings[e.To][right] == 1:
			rateRight += e.Rate
		}
	}
	if math.Abs(rateLeft-0.25) > 1e-12 || math.Abs(rateRight-0.75) > 1e-12 {
		t.Errorf("rates = (%g, %g), want (0.25, 0.75)", rateLeft, rateRight)
	}
}

func TestExploreImmediatePriority(t *testing.T) {
	// Two immediates enabled; the higher priority one must win exclusively.
	b := NewBuilder("prio")
	mid := b.AddPlace("mid", 1)
	hi := b.AddPlace("hi", 0)
	lo := b.AddPlace("lo", 0)
	b.AddTransition(Spec{
		Name: "highPrio", Kind: Immediate, Rate: 1, Priority: 2,
		Inputs:  []Arc{{Place: mid}},
		Outputs: []Arc{{Place: hi}},
	})
	b.AddTransition(Spec{
		Name: "lowPrio", Kind: Immediate, Rate: 100, Priority: 1,
		Inputs:  []Arc{{Place: mid}},
		Outputs: []Arc{{Place: lo}},
	})
	b.AddTransition(Spec{
		Name: "cycle", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: hi}},
		Outputs: []Arc{{Place: mid}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	for _, m := range g.Markings {
		if m[lo] != 0 {
			t.Errorf("low-priority immediate fired: %v", m)
		}
	}
}

func TestExploreImmediateCycleDetected(t *testing.T) {
	b := NewBuilder("cycle")
	a := b.AddPlace("a", 1)
	c := b.AddPlace("c", 0)
	b.AddTransition(Spec{
		Name: "ab", Kind: Immediate, Rate: 1,
		Inputs:  []Arc{{Place: a}},
		Outputs: []Arc{{Place: c}},
	})
	b.AddTransition(Spec{
		Name: "ba", Kind: Immediate, Rate: 1,
		Inputs:  []Arc{{Place: c}},
		Outputs: []Arc{{Place: a}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Explore(n, ExploreOptions{}); !errors.Is(err, ErrImmediateCycle) {
		t.Errorf("err = %v, want ErrImmediateCycle", err)
	}
}

func TestExploreStateSpaceBudget(t *testing.T) {
	// An unbounded counter: source transition with no inputs.
	b := NewBuilder("unbounded")
	p := b.AddPlace("p", 0)
	b.AddTransition(Spec{
		Name: "grow", Kind: Exponential, Rate: 1,
		Outputs: []Arc{{Place: p}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Explore(n, ExploreOptions{MaxMarkings: 50}); !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Errorf("err = %v, want ErrStateSpaceTooLarge", err)
	}
}

func TestExploreMultipleDeterministicRejected(t *testing.T) {
	b := NewBuilder("twodet")
	p := b.AddPlace("p", 1)
	q := b.AddPlace("q", 1)
	b.AddTransition(Spec{
		Name: "d1", Kind: Deterministic, Delay: 1,
		Inputs:  []Arc{{Place: p}},
		Outputs: []Arc{{Place: p}},
	})
	b.AddTransition(Spec{
		Name: "d2", Kind: Deterministic, Delay: 2,
		Inputs:  []Arc{{Place: q}},
		Outputs: []Arc{{Place: q}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Explore(n, ExploreOptions{}); !errors.Is(err, ErrMultipleDeterministic) {
		t.Errorf("err = %v, want ErrMultipleDeterministic", err)
	}
}

func TestExploreDeterministicSchedule(t *testing.T) {
	// Deterministic clock alternating two phases, plus an exponential
	// background transition.
	b := NewBuilder("clock")
	tick := b.AddPlace("tick", 1)
	tock := b.AddPlace("tock", 0)
	work := b.AddPlace("work", 1)
	done := b.AddPlace("done", 0)
	b.AddTransition(Spec{
		Name: "clock", Kind: Deterministic, Delay: 5,
		Inputs:  []Arc{{Place: tick}},
		Outputs: []Arc{{Place: tock}},
	})
	b.AddTransition(Spec{
		Name: "reset", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: tock}},
		Outputs: []Arc{{Place: tick}},
	})
	b.AddTransition(Spec{
		Name: "finish", Kind: Exponential, Rate: 2,
		Inputs:  []Arc{{Place: work}},
		Outputs: []Arc{{Place: done}},
	})
	b.AddTransition(Spec{
		Name: "restart", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: done}},
		Outputs: []Arc{{Place: work}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !g.HasDeterministic() {
		t.Fatal("graph should have deterministic schedules")
	}
	var withDet, withoutDet int
	for s, d := range g.Det {
		if d == nil {
			withoutDet++
			if g.Markings[s][tick] != 0 {
				t.Errorf("state %v has tick token but no schedule", g.Markings[s])
			}
			continue
		}
		withDet++
		if d.Delay != 5 {
			t.Errorf("Delay = %g, want 5", d.Delay)
		}
		var total float64
		for _, pe := range d.Successors {
			total += pe.Prob
			if g.Markings[pe.To][tock] != 1 {
				t.Errorf("deterministic successor lacks tock token: %v", g.Markings[pe.To])
			}
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("successor probabilities sum to %g", total)
		}
	}
	if withDet != 2 || withoutDet != 2 {
		t.Errorf("det/no-det split = %d/%d, want 2/2", withDet, withoutDet)
	}
	if _, _, err := g.Solve(nil, nil, Opts{}); err == nil {
		t.Error("SteadyState must refuse graphs with deterministic transitions")
	}
}

func TestGraphExpectedRewardMM1K(t *testing.T) {
	n := buildMM1K(t, 3, 1, 1)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	// Uniform stationary distribution (rho = 1): mean queue length = 1.5.
	pi, _, err := g.Solve(nil, nil, Opts{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	mean, err := linalg.Dot(pi, g.RewardVector(func(m Marking) float64 { return float64(m[0]) }))
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if math.Abs(mean-1.5) > 1e-12 {
		t.Errorf("mean queue = %g, want 1.5", mean)
	}
}

func TestGraphTokensAndRewardVector(t *testing.T) {
	n := buildMM1K(t, 2, 1, 1)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	r := g.RewardVector(func(m Marking) float64 { return float64(m[0] * 10) })
	for s := range g.Markings {
		if want := float64(g.Tokens(s, 0) * 10); r[s] != want {
			t.Errorf("reward[%d] = %g, want %g", s, r[s], want)
		}
	}
}

// TestExploreInitialVanishingMarking: when the initial marking itself
// enables immediate transitions, the initial distribution must be spread
// over the tangible markings the cascade reaches.
func TestExploreInitialVanishingMarking(t *testing.T) {
	b := NewBuilder("vanishing-start")
	start := b.AddPlace("start", 1)
	left := b.AddPlace("left", 0)
	right := b.AddPlace("right", 0)
	b.AddTransition(Spec{
		Name: "goLeft", Kind: Immediate, Rate: 1,
		Inputs:  []Arc{{Place: start}},
		Outputs: []Arc{{Place: left}},
	})
	b.AddTransition(Spec{
		Name: "goRight", Kind: Immediate, Rate: 3,
		Inputs:  []Arc{{Place: start}},
		Outputs: []Arc{{Place: right}},
	})
	b.AddTransition(Spec{
		Name: "swapLR", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: left}},
		Outputs: []Arc{{Place: right}},
	})
	b.AddTransition(Spec{
		Name: "swapRL", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: right}},
		Outputs: []Arc{{Place: left}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.NumStates() != 2 {
		t.Fatalf("NumStates = %d, want 2", g.NumStates())
	}
	// The vanishing start marking must not be a state, and the initial
	// distribution splits 1/4 vs 3/4 by the immediate weights.
	if _, ok := g.StateIndex(n.InitialMarking()); ok {
		t.Error("vanishing initial marking appears as a tangible state")
	}
	var pLeft, pRight float64
	for s, m := range g.Markings {
		if m[left] == 1 {
			pLeft = g.Initial[s]
		}
		if m[right] == 1 {
			pRight = g.Initial[s]
		}
	}
	if math.Abs(pLeft-0.25) > 1e-12 || math.Abs(pRight-0.75) > 1e-12 {
		t.Errorf("initial = (%g, %g), want (0.25, 0.75)", pLeft, pRight)
	}
}

// TestExploreAbsorbingTangible: an absorbing tangible marking (no timed
// transitions enabled) is a legal graph; only the CTMC solve fails.
func TestExploreAbsorbingTangible(t *testing.T) {
	b := NewBuilder("absorbing")
	src := b.AddPlace("src", 1)
	sink := b.AddPlace("sink", 0)
	b.AddTransition(Spec{
		Name: "drain", Kind: Exponential, Rate: 1,
		Inputs:  []Arc{{Place: src}},
		Outputs: []Arc{{Place: sink}},
	})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.NumStates() != 2 {
		t.Fatalf("NumStates = %d", g.NumStates())
	}
	if _, _, err := g.Solve(nil, nil, Opts{}); err == nil {
		t.Error("steady state of an absorbing chain should fail")
	}
}

// Token conservation: in the MM1K net, queue+free is invariant across all
// reachable markings (a P-invariant).
func TestExploreTokenConservation(t *testing.T) {
	n := buildMM1K(t, 5, 2, 3)
	g, err := Explore(n, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	for _, m := range g.Markings {
		if m.Total() != 5 {
			t.Errorf("marking %v violates token conservation", m)
		}
	}
}
