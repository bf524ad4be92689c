package netdef

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nvrel/internal/mrgp"
	"nvrel/internal/petri"
)

const mm1kSource = `
# M/M/1/3 queue
net mm1k
place queue
place free 3

transition arrive exponential rate=2 in=free out=queue
transition serve  exponential rate=3 in=queue out=free
`

func TestParseMM1KAndSolve(t *testing.T) {
	n, err := ParseString(mm1kSource)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if n.Name() != "mm1k" || n.NumPlaces() != 2 || n.NumTransitions() != 2 {
		t.Fatalf("net = %s with %d places, %d transitions", n.Name(), n.NumPlaces(), n.NumTransitions())
	}
	g, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	pi, _, err := g.Solve(nil, nil, petri.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// rho = 2/3; pi(queue=q) ~ rho^q.
	rho := 2.0 / 3
	norm := 1 + rho + rho*rho + rho*rho*rho
	for s, m := range g.Markings {
		want := math.Pow(rho, float64(m[0])) / norm
		if math.Abs(pi[s]-want) > 1e-12 {
			t.Errorf("pi(queue=%d) = %g, want %g", m[0], pi[s], want)
		}
	}
}

func TestParseRejuvenationToy(t *testing.T) {
	// The rejuvenation toy from the mrgp tests, expressed in text,
	// including a guard and an immediate priority.
	src := `
net toy
place fresh 1
place deg
place clock 1
place restore

transition degrade exponential rate=0.5 in=fresh out=deg
transition tick deterministic delay=2 in=clock out=restore
transition restoreDeg immediate weight=1 priority=2 in=restore,deg out=fresh,clock
transition restoreFresh immediate weight=1 priority=1 guard="#deg == 0" in=restore out=clock
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	g, err := petri.Explore(n, petri.ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	sol, _, err := mrgp.Solve(nil, nil, g, mrgp.Opts{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// P(fresh) = (1 - e^{-lambda tau}) / (lambda tau) with lambda=0.5,
	// tau=2.
	var pFresh float64
	for s, m := range g.Markings {
		if m[0] == 1 {
			pFresh += sol.Pi[s]
		}
	}
	want := (1 - math.Exp(-1)) / 1
	if math.Abs(pFresh-want) > 1e-9 {
		t.Errorf("P(fresh) = %.9f, want %.9f", pFresh, want)
	}
}

func TestParseArcWeights(t *testing.T) {
	src := `
net weighted
place half 4
place whole

transition combine exponential rate=1 in=half*2 out=whole
transition split exponential rate=1 in=whole out=half*2
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	invs, err := n.PInvariants()
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 || invs[0][0] != 1 || invs[0][1] != 2 {
		t.Errorf("invariants = %v, want [[1 2]]", invs)
	}
}

func TestParseInhibitor(t *testing.T) {
	src := `
net inh
place p 1
place blocker 2

transition t exponential rate=1 in=p out=p inhibit=blocker*3
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	tr, ok := n.TransitionByName("t")
	if !ok {
		t.Fatal("transition missing")
	}
	if !n.Enabled(tr, n.InitialMarking()) {
		t.Error("2 blocker tokens < weight 3: should be enabled")
	}
	m := n.InitialMarking()
	m[1] = 3
	if n.Enabled(tr, m) {
		t.Error("3 blocker tokens: should be inhibited")
	}
}

func TestGuardExpressions(t *testing.T) {
	places := map[string]petri.PlaceRef{"a": 0, "b": 1, "c": 2}
	tests := []struct {
		give    string
		marking petri.Marking
		want    bool
	}{
		{give: "#a > 0", marking: petri.Marking{1, 0, 0}, want: true},
		{give: "#a > 0", marking: petri.Marking{0, 5, 0}, want: false},
		{give: "#a + #b == 3", marking: petri.Marking{1, 2, 9}, want: true},
		{give: "#a + #b != 3", marking: petri.Marking{1, 2, 9}, want: false},
		{give: "#a <= 1 && #b >= 2", marking: petri.Marking{1, 2, 0}, want: true},
		{give: "#a <= 1 && #b >= 2", marking: petri.Marking{2, 2, 0}, want: false},
		{give: "#a == 9 || #c < 1", marking: petri.Marking{0, 0, 0}, want: true},
		{give: "#a == 9 || #c < 1", marking: petri.Marking{0, 0, 2}, want: false},
		{give: "#a>0&&#b>0", marking: petri.Marking{1, 1, 0}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			g, err := parseGuard(tt.give, places)
			if err != nil {
				t.Fatalf("parseGuard: %v", err)
			}
			if got := g(tt.marking); got != tt.want {
				t.Errorf("guard(%v) = %v, want %v", tt.marking, got, tt.want)
			}
		})
	}
}

func TestGuardErrors(t *testing.T) {
	places := map[string]petri.PlaceRef{"a": 0}
	for _, src := range []string{
		"", "#a", "#a >", "#a > x", "a > 0", "#zzz > 0", "#a > 0 extra",
		"#a ** 0", "#a + > 0",
	} {
		if _, err := parseGuard(src, places); err == nil {
			t.Errorf("guard %q: expected error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{name: "missing header", src: "place p 1\ntransition t exponential rate=1 in=p"},
		{name: "duplicate header", src: "net a\nnet b"},
		{name: "place before header", src: "place p 1"},
		{name: "bad tokens", src: "net a\nplace p x"},
		{name: "place arity", src: "net a\nplace p 1 2 3"},
		{name: "unknown directive", src: "net a\nfrobnicate"},
		{name: "unknown kind", src: "net a\nplace p 1\ntransition t gaussian rate=1 in=p"},
		{name: "missing equals", src: "net a\nplace p 1\ntransition t exponential rate 1 in=p"},
		{name: "bad rate", src: "net a\nplace p 1\ntransition t exponential rate=abc in=p"},
		{name: "unknown place in arc", src: "net a\nplace p 1\ntransition t exponential rate=1 in=q"},
		{name: "bad arc weight", src: "net a\nplace p 1\ntransition t exponential rate=1 in=p*x"},
		{name: "empty arcs", src: "net a\nplace p 1\ntransition t exponential rate=1 in="},
		{name: "unknown key", src: "net a\nplace p 1\ntransition t exponential rate=1 in=p color=red"},
		{name: "bad priority", src: "net a\nplace p 1\ntransition t immediate weight=1 priority=x in=p"},
		{name: "bad guard", src: "net a\nplace p 1\ntransition t exponential rate=1 in=p guard=\"#q > 0\""},
		{name: "transition arity", src: "net a\nplace p 1\ntransition t"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.src); !errors.Is(err, ErrSyntax) {
				t.Errorf("err = %v, want ErrSyntax", err)
			}
		})
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
# leading comment

net commented # trailing comment
place p 1  # another
transition t exponential rate=1 in=p out=p
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if n.Name() != "commented" {
		t.Errorf("name = %q", n.Name())
	}
}

func TestTokenizeQuotes(t *testing.T) {
	got := tokenize(`transition t immediate weight=1 guard="#a > 0 && #b == 2" in=p`)
	want := []string{"transition", "t", "immediate", "weight=1", `guard=#a > 0 && #b == 2`, "in=p"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseFromReaderError(t *testing.T) {
	if _, err := Parse(strings.NewReader("net x\n")); err == nil {
		t.Error("net with no places should fail at Build")
	}
}

func TestParseReward(t *testing.T) {
	places := map[string]petri.PlaceRef{"a": 0, "b": 1}
	tests := []struct {
		give    string
		marking petri.Marking
		want    float64
	}{
		{give: "#a", marking: petri.Marking{3, 5}, want: 3},
		{give: "#a + #b", marking: petri.Marking{3, 5}, want: 8},
		{give: "2*#a + #b", marking: petri.Marking{3, 5}, want: 11},
		{give: "0.5*#b", marking: petri.Marking{0, 4}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			rf, err := ParseReward(tt.give, places)
			if err != nil {
				t.Fatalf("ParseReward: %v", err)
			}
			if got := rf(tt.marking); got != tt.want {
				t.Errorf("reward(%v) = %g, want %g", tt.marking, got, tt.want)
			}
		})
	}
}

func TestParseRewardErrors(t *testing.T) {
	places := map[string]petri.PlaceRef{"a": 0}
	for _, src := range []string{
		"", "a", "#zzz", "2*", "2 #a", "#a +", "#a - #a", "2*2",
	} {
		if _, err := ParseReward(src, places); err == nil {
			t.Errorf("reward %q: expected error", src)
		}
	}
}
