package nvp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
	"nvrel/internal/reliability"
)

// fiResultNaN corrupts the solved distribution after every solver guard
// has passed — the harshest chaos site, proving the top-level result guard
// is load-bearing on its own.
var fiResultNaN = faultinject.SiteFor("nvp.result.nan")

// Architecture distinguishes the two perception-system variants.
type Architecture int

const (
	// NoRejuvenation is the Figure 2(a) DSPN.
	NoRejuvenation Architecture = iota + 1
	// WithRejuvenation is the Figure 2(b)+(c) DSPN.
	WithRejuvenation
)

// String returns the architecture name.
func (a Architecture) String() string {
	switch a {
	case NoRejuvenation:
		return "no-rejuvenation"
	case WithRejuvenation:
		return "with-rejuvenation"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Model is a solved-ready perception-system DSPN.
type Model struct {
	Arch   Architecture
	Params Params
	Net    *petri.Net
	Graph  *petri.Graph

	pmh, pmc, pmf petri.PlaceRef
	pmr           petri.PlaceRef // only for WithRejuvenation
}

// ModuleState is a module-population state (i healthy, j compromised,
// k non-operational or rejuvenating) with its steady-state probability.
type ModuleState struct {
	Healthy, Compromised, Down int
	Probability                float64
}

// weightEpsilon is the paper's placeholder weight for empty places in
// w1/w2 (Table I): the system cannot distinguish healthy from compromised
// modules, so the choice is weighted by the population sizes, with a tiny
// floor so the branch stays defined when one population is empty.
const weightEpsilon = 0.00001

// tcOverride replaces the default constant-rate compromise transition;
// used by the Markov-modulated attacker extension.
type tcOverride func(b *petri.Builder, pmh, pmc petri.PlaceRef)

// BuildNoRejuvenation constructs and explores the Figure 2(a) model.
func BuildNoRejuvenation(p Params) (*Model, error) {
	if err := p.Validate(false); err != nil {
		return nil, err
	}
	return buildPlainNet(p, nil)
}

// plainRefs carries the place references of the plain net; the builder
// assigns them deterministically, so they are identical across assemblies.
type plainRefs struct {
	pmh, pmc, pmf petri.PlaceRef
}

// assemblePlainNet assembles the architecture without rejuvenation,
// optionally with a custom compromise process, without exploring it.
func assemblePlainNet(p Params, override tcOverride) (*petri.Net, plainRefs, error) {
	b := petri.NewBuilder("perception-no-rejuvenation")
	pmh := b.AddPlace("Pmh", p.N)
	pmc := b.AddPlace("Pmc", 0)
	pmf := b.AddPlace("Pmf", 0)

	if override != nil {
		override(b, pmh, pmc)
		addModuleLifecycle(b, p, pmh, pmc, pmf, false)
	} else {
		addModuleLifecycle(b, p, pmh, pmc, pmf, true)
	}

	net, err := b.Build()
	if err != nil {
		return nil, plainRefs{}, err
	}
	return net, plainRefs{pmh: pmh, pmc: pmc, pmf: pmf}, nil
}

// buildPlainNet assembles and explores the architecture without
// rejuvenation, optionally with a custom compromise process.
func buildPlainNet(p Params, override tcOverride) (*Model, error) {
	net, refs, err := assemblePlainNet(p, override)
	if err != nil {
		return nil, err
	}
	g, err := petri.Explore(net, petri.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	return &Model{
		Arch: NoRejuvenation, Params: p, Net: net, Graph: g,
		pmh: refs.pmh, pmc: refs.pmc, pmf: refs.pmf, pmr: -1,
	}, nil
}

// BuildWithRejuvenation constructs and explores the Figure 2(b)+(c) model.
func BuildWithRejuvenation(p Params) (*Model, error) {
	if err := p.Validate(true); err != nil {
		return nil, err
	}
	return buildRejuvenationNet(p, nil)
}

// rejRefs carries the place references of the rejuvenation net.
type rejRefs struct {
	pmh, pmc, pmf, pmr petri.PlaceRef
}

// assembleRejuvenationNet assembles the clocked architecture, optionally
// with a custom compromise process, without exploring it.
func assembleRejuvenationNet(p Params, override tcOverride) (*petri.Net, rejRefs, error) {
	b := petri.NewBuilder("perception-rejuvenation")
	pmh := b.AddPlace("Pmh", p.N)
	pmc := b.AddPlace("Pmc", 0)
	pmf := b.AddPlace("Pmf", 0)
	pac := b.AddPlace("Pac", 0)
	pmr := b.AddPlace("Pmr", 0)
	prc := b.AddPlace("Prc", 1)
	ptr := b.AddPlace("Ptr", 0)

	if override != nil {
		override(b, pmh, pmc)
		addModuleLifecycle(b, p, pmh, pmc, pmf, false)
	} else {
		addModuleLifecycle(b, p, pmh, pmc, pmf, true)
	}

	r := p.R
	// Rejuvenation clock (Figure 2(b)): Trc moves the clock token from Prc
	// to Ptr every RejuvenationInterval; Trt returns it once the
	// rejuvenation wave has been dispatched (guard g3).
	b.AddTransition(petri.Spec{
		Name: "Trc", Kind: petri.Deterministic, Delay: p.RejuvenationInterval,
		Inputs:  []petri.Arc{{Place: prc}},
		Outputs: []petri.Arc{{Place: ptr}},
	})
	// Tac dispatches r activation tokens when the clock has fired (token in
	// Ptr) and no previous wave is still in flight (guard g1, read as
	// #Pac + #Pmr = 0 per DESIGN.md). Under the waits-for-wave policy Tac
	// additionally moves the clock token to a wait place so the wave is
	// dispatched exactly once per tick while Trt holds the clock until the
	// wave drains.
	tacSpec := petri.Spec{
		Name: "Tac", Kind: petri.Immediate, Rate: 1, Priority: 3,
		Guard: func(m petri.Marking) bool {
			return m[ptr] >= 1 && m[pac] == 0 && m[pmr] == 0
		},
		Outputs: []petri.Arc{{Place: pac, Weight: r}},
	}
	var pwait petri.PlaceRef = -1
	if p.Clock == ClockWaitsForWave {
		pwait = b.AddPlace("Pwait", 0)
		tacSpec.Inputs = []petri.Arc{{Place: ptr}}
		tacSpec.Outputs = append(tacSpec.Outputs, petri.Arc{Place: pwait})
	}
	b.AddTransition(tacSpec)
	// g2 (Table I): at most r modules may be rejuvenating or under repair.
	g2 := func(m petri.Marking) bool { return m[pmf]+m[pmr] < r }
	// Trj1 picks a compromised module for rejuvenation, Trj2 a healthy one;
	// the weights w1/w2 encode that the system cannot tell them apart.
	b.AddTransition(petri.Spec{
		Name: "Trj1", Kind: petri.Immediate, Priority: 2,
		RateFn: func(m petri.Marking) float64 {
			if m[pmc] == 0 {
				return weightEpsilon
			}
			return float64(m[pmc]) / float64(m[pmc]+m[pmh])
		},
		Guard:   g2,
		Inputs:  []petri.Arc{{Place: pmc}, {Place: pac}},
		Outputs: []petri.Arc{{Place: pmr}},
	})
	b.AddTransition(petri.Spec{
		Name: "Trj2", Kind: petri.Immediate, Priority: 2,
		RateFn: func(m petri.Marking) float64 {
			if m[pmh] == 0 {
				return weightEpsilon
			}
			return float64(m[pmh]) / float64(m[pmc]+m[pmh])
		},
		Guard:   g2,
		Inputs:  []petri.Arc{{Place: pmh}, {Place: pac}},
		Outputs: []petri.Arc{{Place: pmr}},
	})
	// Trt resets the clock. Under the free-running policy it fires once
	// the wave is in flight (guard g3 as printed, "#Pmr + #Pac > 0") and
	// consumes the Ptr token; under the waits-for-wave policy it consumes
	// the Pwait token once the wave has drained.
	trtSpec := petri.Spec{
		Name: "Trt", Kind: petri.Immediate, Rate: 1, Priority: 1,
		Guard:   func(m petri.Marking) bool { return m[pmr]+m[pac] > 0 },
		Inputs:  []petri.Arc{{Place: ptr}},
		Outputs: []petri.Arc{{Place: prc}},
	}
	if p.Clock == ClockWaitsForWave {
		trtSpec.Guard = func(m petri.Marking) bool { return m[pmr]+m[pac] == 0 }
		trtSpec.Inputs = []petri.Arc{{Place: pwait}}
	}
	b.AddTransition(trtSpec)
	// Trj completes rejuvenation: it consumes min(#Pmr, r) tokens (w5) and
	// returns the same number to Pmh (w6) at rate 1/(base x #Pmr).
	batch := func(m petri.Marking) int {
		if m[pmr] < r {
			return m[pmr]
		}
		return r
	}
	b.AddTransition(petri.Spec{
		Name: "Trj", Kind: petri.Exponential,
		RateFn: func(m petri.Marking) float64 {
			if m[pmr] == 0 {
				return 0
			}
			return 1 / (p.MeanTimeToRejuvenate * float64(m[pmr]))
		},
		Inputs:  []petri.Arc{{Place: pmr, WeightFn: batch}},
		Outputs: []petri.Arc{{Place: pmh, WeightFn: batch}},
	})

	net, err := b.Build()
	if err != nil {
		return nil, rejRefs{}, err
	}
	return net, rejRefs{pmh: pmh, pmc: pmc, pmf: pmf, pmr: pmr}, nil
}

// buildRejuvenationNet assembles and explores the clocked architecture,
// optionally with a custom compromise process.
func buildRejuvenationNet(p Params, override tcOverride) (*Model, error) {
	net, refs, err := assembleRejuvenationNet(p, override)
	if err != nil {
		return nil, err
	}
	g, err := petri.Explore(net, petri.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	return &Model{
		Arch: WithRejuvenation, Params: p, Net: net, Graph: g,
		pmh: refs.pmh, pmc: refs.pmc, pmf: refs.pmf, pmr: refs.pmr,
	}, nil
}

// addModuleLifecycle adds the lifecycle transitions shared by both
// models; includeTc is false when a custom compromise process already
// provides Tc.
func addModuleLifecycle(b *petri.Builder, p Params, pmh, pmc, pmf petri.PlaceRef, includeTc bool) {
	rate := func(mean float64, place petri.PlaceRef) petri.Spec {
		spec := petri.Spec{Kind: petri.Exponential}
		switch p.semantics() {
		case PerToken:
			spec.RateFn = func(m petri.Marking) float64 {
				return float64(m[place]) / mean
			}
		default:
			spec.Rate = 1 / mean
		}
		return spec
	}

	if includeTc {
		tc := rate(p.MeanTimeToCompromise, pmh)
		tc.Name = "Tc"
		tc.Inputs = []petri.Arc{{Place: pmh}}
		tc.Outputs = []petri.Arc{{Place: pmc}}
		b.AddTransition(tc)
	}

	tf := rate(p.MeanTimeToFailure, pmc)
	tf.Name = "Tf"
	tf.Inputs = []petri.Arc{{Place: pmc}}
	tf.Outputs = []petri.Arc{{Place: pmf}}
	b.AddTransition(tf)

	tr := rate(p.MeanTimeToRepair, pmf)
	tr.Name = "Tr"
	tr.Inputs = []petri.Arc{{Place: pmf}}
	tr.Outputs = []petri.Arc{{Place: pmh}}
	b.AddTransition(tr)
}

// classify maps a tangible marking to the module-population triple.
func (m *Model) classify(mk petri.Marking) (healthy, compromised, down int) {
	healthy = mk[m.pmh]
	compromised = mk[m.pmc]
	down = mk[m.pmf]
	if m.pmr >= 0 {
		down += mk[m.pmr]
	}
	return healthy, compromised, down
}

// SolverKind names the solver the architecture and clock policy route to:
// "ctmc" (GTH/GS on the plain CTMC), "mrgp" (clock-synchronous
// Markov-regenerative), or "mrgp-general" (waits-for-wave clock).
func (m *Model) SolverKind() string {
	switch {
	case m.Arch != WithRejuvenation:
		return "ctmc"
	case m.Params.Clock == ClockWaitsForWave:
		return "mrgp-general"
	default:
		return "mrgp"
	}
}

// Opts selects how Model.Solve runs.
type Opts struct {
	// Seed is an optional warm-start vector. What it means depends on the
	// routed solver: the previous stationary distribution pi for the CTMC
	// architecture, the previous embedded-chain vector for the
	// clock-synchronous Markov-regenerative one; the general
	// (waits-for-wave) solver ignores it. A nil seed reproduces the cold
	// solve bit for bit. Callers normally go through WarmRegistry.Solve,
	// which pairs each solve with the matching iterate automatically.
	Seed []float64
	// Rung names one solver rung to run with no fallback: "gs", "gth" or
	// "power" for the CTMC architecture, "mrgp-dense" or "mrgp-sparse" for
	// the clock-synchronous one. Empty routes to the architecture's
	// solver and runs its full fallback ladder.
	Rung string
}

// rungSolver maps each named rung to the SolverKind it needs.
var rungSolver = map[string]string{
	"gs": "ctmc", "gth": "ctmc", "power": "ctmc",
	"mrgp-dense": "mrgp", "mrgp-sparse": "mrgp",
}

// Solve returns the steady-state distribution over tangible states using
// the solver appropriate to the architecture: the CTMC ladder without
// rejuvenation, the clock-synchronous Markov-regenerative solver for the
// free-running clock, and the general Markov-regenerative solver when the
// clock stops during rejuvenation waves. The diag reports the path, the
// iterative work and every failed rung; the general solver reports only
// the state count.
//
// ctx bounds the solve (nil never expires); scratch comes from ws (nil
// allocates, and a workspace must not be shared between goroutines).
// Whatever path produced the vector, it passes a final distribution guard
// before any caller computes a reliability number from it.
func (m *Model) Solve(ctx context.Context, ws *linalg.Workspace, o Opts) ([]float64, petri.SolveDiag, error) {
	pi, _, diag, err := m.solve(ctx, ws, o)
	return pi, diag, err
}

// SolveDiagCtxWS is Solve with default options. It is kept only for the
// perfbench module, which calls it by name.
func (m *Model) SolveDiagCtxWS(ctx context.Context, ws *linalg.Workspace) ([]float64, petri.SolveDiag, error) {
	return m.Solve(ctx, ws, Opts{})
}

// SolveRungCtxWS is Solve on one named rung, returning the rung's
// iterative work. It is kept only for the perfbench module, which calls it
// by name.
func (m *Model) SolveRungCtxWS(ctx context.Context, ws *linalg.Workspace, rung string) ([]float64, int, error) {
	pi, diag, err := m.Solve(ctx, ws, Opts{Rung: rung})
	return pi, diag.Iterations(), err
}

// solve additionally returns the iterate vector a future warm start
// should begin from — pi itself on the CTMC path, the embedded vector on
// the Markov-regenerative path, nil where seeding is unsupported.
func (m *Model) solve(ctx context.Context, ws *linalg.Workspace, o Opts) (pi, iterate []float64, diag petri.SolveDiag, err error) {
	site := "nvp.solve"
	if o.Rung != "" {
		site = "nvp.solve.rung"
	}
	ctx, sp := obs.StartSpan(ctx, site)
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	sp.Str("arch", m.Arch.String())
	kind := m.SolverKind()
	if o.Rung == "" {
		sp.Str("solver", kind)
	} else {
		sp.Str("rung", o.Rung)
		switch want, ok := rungSolver[o.Rung]; {
		case !ok:
			return nil, nil, diag, fmt.Errorf("nvp: unknown solver rung %q", o.Rung)
		case want != kind:
			return nil, nil, diag, fmt.Errorf("nvp: rung %q needs the %s architecture, model solves via %s", o.Rung, want, kind)
		}
	}
	var sol *mrgp.Solution
	switch kind {
	case "ctmc":
		pi, diag, err = m.Graph.Solve(ctx, ws, petri.Opts{Seed: o.Seed, Rung: o.Rung})
		iterate = pi
	case "mrgp-general":
		diag = petri.SolveDiag{States: m.Graph.NumStates()}
		sol, err = mrgp.SolveGeneral(ctx, ws, m.Graph)
	default:
		sol, diag, err = mrgp.Solve(ctx, ws, m.Graph, mrgp.Opts{Seed: o.Seed, Rung: strings.TrimPrefix(o.Rung, "mrgp-")})
	}
	if sol != nil {
		pi = sol.Pi
		if kind == "mrgp" {
			iterate = sol.Embedded
		}
	}
	if err != nil {
		return nil, nil, diag, err
	}
	if o.Rung == "" && faultinject.Enabled() && fiResultNaN.Fire() && len(pi) > 0 {
		pi[0] = math.NaN()
	}
	if err := linalg.ValidateDistribution(site, pi); err != nil {
		return nil, nil, diag, err
	}
	if o.Rung == "" {
		sp.Int("states", int64(diag.States))
	}
	return pi, iterate, diag, nil
}

// shadowKey indexes the path-diversity matrix by the routed solver and
// the path that produced the primary result.
type shadowKey struct {
	solver string
	path   petri.SolvePath
}

// shadowPair is one row of the matrix: the label of the primary path
// (the per-pair agreement histograms are named after it) and the rung an
// independent re-solve runs on.
type shadowPair struct {
	primary, rung string
}

// shadowMatrix is the diversity matrix (DESIGN.md §14). For the CTMC
// architecture sparse GS is cross-checked by dense GTH, dense GTH by
// uniformized power, a GS→GTH fallback by power, and a GTH→power fallback
// by GS; a solve that already fell all the way to power has no rung left.
// For the clock-synchronous MRGP architecture the sparse embedded-chain
// solution is cross-checked by the dense formulation and a dense answer
// (by size or by fallback) by the sparse one. The general (waits-for-wave)
// solver has a single formulation and no rows.
var shadowMatrix = map[shadowKey]shadowPair{
	{"ctmc", petri.PathSparse}:              {"sparse", "gth"},
	{"ctmc", petri.PathDense}:               {"dense", "power"},
	{"ctmc", petri.PathSparseFallbackDense}: {"sparse-fallback-dense", "power"},
	{"ctmc", petri.PathDenseFallbackPower}:  {"dense-fallback-power", "gs"},
	{"ctmc", petri.PathSparseFallbackPower}: {"sparse-fallback-power", ""},
	{"mrgp", petri.PathSparse}:              {"mrgp-sparse", "mrgp-dense"},
	{"mrgp", petri.PathDense}:               {"mrgp-dense", "mrgp-sparse"},
	{"mrgp", petri.PathSparseFallbackDense}: {"mrgp-dense", "mrgp-sparse"},
}

// ShadowRung names the solver rung a shadow verification should re-solve
// this model on: a path deliberately different from — and numerically
// independent of — the one that produced the primary result (described
// by diag). Empty means no independent rung remains (the primary answer
// already consumed the whole ladder, or the architecture has no second
// formulation), in which case the shadow layer counts the solve as
// skipped rather than comparing a path against itself.
func (m *Model) ShadowRung(diag petri.SolveDiag) string {
	return shadowMatrix[shadowKey{m.SolverKind(), diag.Path}].rung
}

// PrimaryPath labels the path that produced a primary result, from the
// same matrix as ShadowRung; the shadow layer names its per-pair
// agreement histograms after it.
func (m *Model) PrimaryPath(diag petri.SolveDiag) string {
	return shadowMatrix[shadowKey{m.SolverKind(), diag.Path}].primary
}

// StateDistribution aggregates the steady state into module-population
// states (i, j, k), sorted by decreasing probability.
func (m *Model) StateDistribution() ([]ModuleState, error) {
	pi, _, err := m.Solve(nil, nil, Opts{})
	if err != nil {
		return nil, err
	}
	type key struct{ i, j, k int }
	agg := make(map[key]float64)
	for s, mk := range m.Graph.Markings {
		i, j, k := m.classify(mk)
		agg[key{i, j, k}] += pi[s]
	}
	out := make([]ModuleState, 0, len(agg))
	for k, p := range agg {
		out = append(out, ModuleState{Healthy: k.i, Compromised: k.j, Down: k.k, Probability: p})
	}
	sortStates(out)
	return out, nil
}

// ExpectedReliability computes E[R_sys] = sum pi(i,j,k) R(i,j,k) under the
// given state reliability function, solving the model with default
// options.
func (m *Model) ExpectedReliability(rf reliability.StateFn) (float64, error) {
	pi, _, err := m.Solve(nil, nil, Opts{})
	if err != nil {
		return 0, err
	}
	return m.weigh(pi, rf)
}

// weigh is the one summation loop behind every E[R_sys]: callers that
// solve once (for diagnostics) and weigh separately get a bit-for-bit
// match with the one-call path.
func (m *Model) weigh(pi []float64, rf reliability.StateFn) (float64, error) {
	if len(pi) != len(m.Graph.Markings) {
		return 0, fmt.Errorf("nvp: distribution has %d states, graph has %d", len(pi), len(m.Graph.Markings))
	}
	var e float64
	for s, mk := range m.Graph.Markings {
		i, j, k := m.classify(mk)
		e += pi[s] * rf(i, j, k)
	}
	return e, nil
}

// PaperReliability returns the paper's verbatim reliability function when
// the model matches one of the two published configurations — the
// four-version system (n=4, f=1, voting 3-of-4) or the six-version system
// (n=6, f=1, r=1, voting 4-of-6). The appendix matrices hardcode those
// voting thresholds, so any other (N, f, r) uses the generalized dependent
// model instead.
func (m *Model) PaperReliability() (reliability.StateFn, error) {
	pr := m.Params.Reliability()
	switch {
	case m.Params.N == 4 && m.Params.F == 1 && m.Params.R == 0:
		return reliability.FourVersion(pr)
	case m.Params.N == 6 && m.Params.F == 1 && m.Params.R == 1:
		return reliability.SixVersion(pr)
	default:
		return reliability.Dependent(pr, m.Params.Scheme())
	}
}

// ExpectedPaperReliability is the one-call headline metric: E[R_sys] under
// the paper's reliability functions.
func (m *Model) ExpectedPaperReliability() (float64, error) {
	rf, err := m.PaperReliability()
	if err != nil {
		return 0, err
	}
	return m.ExpectedReliability(rf)
}

// ExpectedPaperReliabilityFrom computes E[R_sys] under the paper's
// reliability function from an already-solved distribution.
func (m *Model) ExpectedPaperReliabilityFrom(pi []float64) (float64, error) {
	rf, err := m.PaperReliability()
	if err != nil {
		return 0, err
	}
	return m.weigh(pi, rf)
}

func sortStates(states []ModuleState) {
	for i := 1; i < len(states); i++ {
		for j := i; j > 0 && states[j].Probability > states[j-1].Probability; j-- {
			states[j], states[j-1] = states[j-1], states[j]
		}
	}
}
