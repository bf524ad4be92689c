package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"nvrel"
	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/shadow"
)

// chaosDeviationTol separates "recovered via a different solver path"
// (alternate algorithms agree to far better than this) from "silently
// wrong": any fault run whose reliability deviates from the clean baseline
// by more than this without a typed error fails the gate.
const chaosDeviationTol = 1e-9

// defaultChaosItemTimeout bounds each grid-point attempt. Clean solves of
// the chaos workloads finish well under half a second, so only an
// injected stall can blow this deadline — which is exactly the path it
// exists to exercise. Instrumented runs (race detector, heavy machines)
// raise it with -timeout.
const defaultChaosItemTimeout = 2 * time.Second

// chaosEvidenceCounters are the recovery counters whose per-fault deltas
// certify that a small deviation came from a fallback path rather than
// silent corruption.
var chaosEvidenceCounters = []string{
	"petri.solve.recovered",
	"mrgp.solve.recovered_dense",
	"parallel.item.retry",
	"parallel.worker.respawn",
	"linalg.seed.rejected",
}

// defaultChaosPlan covers every registered fault site with at least one
// fault, including the silent-corruption modes (nan/inf/negate/scale) at
// the CSR stamp where a wrong number could otherwise slip through.
func defaultChaosPlan(seed int64) *faultinject.Plan {
	return &faultinject.Plan{Seed: seed, Faults: []faultinject.Fault{
		{Site: "linalg.gs.stall", Mode: "fire"},
		{Site: "linalg.gs.poison", Mode: "fire"},
		{Site: "linalg.kernel.panic", Mode: "panic"},
		{Site: "petri.stamp.corrupt", Mode: "nan"},
		{Site: "petri.stamp.corrupt", Mode: "inf"},
		{Site: "petri.stamp.corrupt", Mode: "negate"},
		{Site: "petri.stamp.corrupt", Mode: "scale", Value: 1.75},
		{Site: "mrgp.power.stall", Mode: "fire"},
		{Site: "mrgp.kernel.panic", Mode: "panic"},
		{Site: "parallel.worker.panic", Mode: "panic"},
		{Site: "parallel.worker.stall", Mode: "stall", DelayMS: 5000},
		{Site: "nvp.result.nan", Mode: "fire"},
		{Site: "warmstart.seed.corrupt", Mode: "nan"},
		{Site: "warmstart.seed.corrupt", Mode: "negate"},
	}}
}

// chaosWorkloadNames label the two standard sweep workloads: a 24-module
// no-rejuvenation CTMC (325 states, sparse Gauss-Seidel route through
// internal/petri) and a 10-module rejuvenation DSPN (176 states, sparse
// Markov-regenerative route through internal/mrgp). Both sit past
// linalg.SparseThreshold so every fallback rung is reachable.
var chaosWorkloadNames = []string{"4v-n24-ctmc-sparse", "6v-n10-mrgp-sparse"}

// ChaosFaultResult is the verdict for one fault of the plan.
type ChaosFaultResult struct {
	Site string `json:"site"`
	Mode string `json:"mode,omitempty"`
	// Class is recovered_identical, recovered_fallback, typed_error,
	// untyped_error, silent_wrong, or not_triggered. Only the first three
	// pass the gate.
	Class string `json:"class"`
	// Fired is how many times the armed site actually injected.
	Fired int64 `json:"fired"`
	// MaxDeviation is the largest |value - baseline| across grid points
	// that completed without error.
	MaxDeviation float64 `json:"max_deviation"`
	// ErrorPoints counts grid points that surfaced an error.
	ErrorPoints int `json:"error_points"`
	// Errors holds the distinct error strings surfaced by this fault.
	Errors []string `json:"errors,omitempty"`
	// Evidence holds the recovery-counter deltas observed during the run.
	Evidence map[string]int64 `json:"evidence,omitempty"`
}

// ChaosReport is the chaos.json document.
type ChaosReport struct {
	Seed        int64              `json:"seed"`
	Steps       int                `json:"steps"`
	Workloads   []string           `json:"workloads"`
	Baseline    []float64          `json:"baseline"`
	Results     []ChaosFaultResult `json:"results"`
	Summary     map[string]int     `json:"summary"`
	SilentWrong int                `json:"silent_wrong"`
	// Shadow holds the N-version cross-check tally for the clean baseline
	// grid (faulted grids are never shadow-verified: injected corruption
	// would surface as expected divergence and drown the signal).
	Shadow   *shadow.Stats `json:"shadow,omitempty"`
	Manifest obs.Manifest  `json:"manifest"`
	Metrics  obs.Snapshot  `json:"metrics"`
}

// cmdChaos runs the standard sweep workloads under a fault plan and
// asserts every injected fault is either recovered (bit-identical, or a
// certified fallback within chaosDeviationTol) or surfaced as a typed
// error — never a silent wrong number.
func cmdChaos(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(out)
	seed := fs.Int64("seed", 1, "plan seed (selects corruption slots)")
	planPath := fs.String("plan", "", "JSON fault plan (default: built-in plan covering every site)")
	outPath := fs.String("o", "", "write the chaos report JSON here")
	steps := fs.Int("steps", 3, "grid points per workload (>= 2)")
	itemTimeout := fs.Duration("timeout", defaultChaosItemTimeout,
		"per-point attempt deadline; an injected stall past it is cut and retried")
	shadowRate := fs.Float64("shadow-rate", 1.0,
		"shadow-verify this fraction of baseline solves on an independent solver path (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *itemTimeout <= 0 {
		return fmt.Errorf("chaos: timeout must be positive, got %v", *itemTimeout)
	}
	if *steps < 2 {
		return fmt.Errorf("chaos: steps = %d must be at least 2", *steps)
	}
	plan := defaultChaosPlan(*seed)
	if *planPath != "" {
		data, err := os.ReadFile(*planPath)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		if plan, err = faultinject.ParsePlan(data); err != nil {
			return err
		}
		if plan.Seed == 0 {
			plan.Seed = *seed
		}
	}

	// Counter deltas certify fallback recoveries, so the registry must be
	// live for the whole run (restored afterwards: tests share the process).
	prevObs := obs.Enable()
	defer obs.SetEnabled(prevObs)
	faultinject.Reset()
	defer func() {
		faultinject.Disable()
		faultinject.Reset()
	}()

	// The baseline grid runs with injection disabled, so its solves are
	// fair game for N-version cross-checking: a divergence here means the
	// solver rungs disagree with no fault armed, which is its own failure.
	var ver *shadow.Verifier
	if *shadowRate > 0 {
		ver = shadow.New(shadow.Config{Rate: *shadowRate, Workers: 1, Source: "chaos"})
		defer ver.Close()
	}

	start := time.Now()
	baseline, baseErrs := runChaosGrid(*steps, *itemTimeout, ver)
	for i, err := range baseErrs {
		if err != nil {
			return fmt.Errorf("chaos: baseline point %d failed with injection disabled: %w", i, err)
		}
	}
	var shadowStats *shadow.Stats
	if ver != nil {
		ver.Flush()
		st := ver.Stats()
		shadowStats = &st
		fmt.Fprintf(out, "chaos: baseline over %s (%d points each) clean; shadow sampled %d agree %d diverge %d skipped %d errors %d\n",
			strings.Join(chaosWorkloadNames, ", "), *steps,
			st.Sampled, st.Agree, st.Diverge, st.Skipped, st.Errors)
		if st.Diverge > 0 {
			return fmt.Errorf("chaos: baseline shadow check found %d divergence(s) with injection disabled", st.Diverge)
		}
	} else {
		fmt.Fprintf(out, "chaos: baseline over %s (%d points each) clean\n",
			strings.Join(chaosWorkloadNames, ", "), *steps)
	}

	report := ChaosReport{
		Seed:      plan.Seed,
		Steps:     *steps,
		Workloads: chaosWorkloadNames,
		Baseline:  baseline,
		Summary:   make(map[string]int),
		Shadow:    shadowStats,
	}
	for _, f := range plan.Faults {
		res, err := runChaosFault(f, plan.Seed, *steps, *itemTimeout, baseline)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
		report.Summary[res.Class]++
		fmt.Fprintf(out, "  %-22s %-8s %-20s fired=%d maxdev=%.2e errors=%d\n",
			f.Site, modeLabel(f.Mode), res.Class, res.Fired, res.MaxDeviation, res.ErrorPoints)
	}

	report.SilentWrong = report.Summary["silent_wrong"]
	bad := report.SilentWrong + report.Summary["untyped_error"] + report.Summary["not_triggered"]
	report.Manifest = runManifest([]string{"chaos"}, time.Since(start).Seconds())
	report.Metrics = obs.Capture()
	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}

	fmt.Fprintf(out, "chaos: %d faults: %d recovered identical, %d recovered via fallback, %d typed errors, %d silent wrong answers\n",
		len(plan.Faults), report.Summary["recovered_identical"], report.Summary["recovered_fallback"],
		report.Summary["typed_error"], report.SilentWrong)
	if bad > 0 {
		return fmt.Errorf("chaos: %d faults escaped containment (silent_wrong=%d untyped_error=%d not_triggered=%d)",
			bad, report.SilentWrong, report.Summary["untyped_error"], report.Summary["not_triggered"])
	}
	return nil
}

func modeLabel(mode string) string {
	if mode == "" {
		return "fire"
	}
	return mode
}

// runChaosFault arms one fault, replays the grid, and classifies the
// outcome against the clean baseline.
func runChaosFault(f faultinject.Fault, seed int64, steps int, itemTimeout time.Duration, baseline []float64) (ChaosFaultResult, error) {
	res := ChaosFaultResult{Site: f.Site, Mode: f.Mode}
	faultinject.Reset()
	if err := faultinject.Arm(f, seed); err != nil {
		return res, err
	}
	before := obs.Capture()
	faultinject.Enable()
	// Faulted grids get no shadow verifier: injected corruption diverging
	// from an independent rung is the expected outcome, not a finding.
	vals, errs := runChaosGrid(steps, itemTimeout, nil)
	faultinject.Disable()
	after := obs.Capture()
	res.Fired = faultinject.SiteFor(f.Site).Fired()

	res.Evidence = make(map[string]int64)
	for _, name := range chaosEvidenceCounters {
		if d := after.Counters[name] - before.Counters[name]; d > 0 {
			res.Evidence[name] = d
		}
	}

	allTyped := true
	seen := make(map[string]bool)
	for i := range errs {
		if errs[i] == nil {
			if d := math.Abs(vals[i] - baseline[i]); d > res.MaxDeviation {
				res.MaxDeviation = d
			}
			continue
		}
		res.ErrorPoints++
		if !typedChaosError(errs[i]) {
			allTyped = false
		}
		if msg := errs[i].Error(); !seen[msg] {
			seen[msg] = true
			res.Errors = append(res.Errors, msg)
		}
	}
	sort.Strings(res.Errors)

	switch {
	case res.Fired == 0:
		res.Class = "not_triggered"
	case res.MaxDeviation > chaosDeviationTol:
		res.Class = "silent_wrong"
	case res.ErrorPoints > 0 && !allTyped:
		res.Class = "untyped_error"
	case res.ErrorPoints > 0:
		res.Class = "typed_error"
	case res.MaxDeviation == 0:
		res.Class = "recovered_identical"
	case len(res.Evidence) > 0:
		res.Class = "recovered_fallback"
	default:
		// A deviation with no error and no recovery-counter evidence is a
		// wrong number nobody flagged, however small.
		res.Class = "silent_wrong"
	}
	return res, nil
}

// typedChaosError reports whether a surfaced failure carries a type the
// caller can act on: a solver SolveError, a recovered pool panic, or a
// context error.
func typedChaosError(err error) bool {
	if _, ok := linalg.AsSolveError(err); ok {
		return true
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// chaosGridEnv is the per-grid solve environment: one model cache (each
// point re-stamps its CSR matrices through it, so stamp-time faults stay
// reachable), one warm-start registry (each point seeds from its solved
// predecessors, so the seed-lookup fault site and the seed-validation
// rejection path are both live), and one workspace arena — the same trio
// every production sweep driver carries.
type chaosGridEnv struct {
	cache *nvrel.ModelCache
	reg   *nvrel.WarmRegistry
	arena *linalg.Arena
}

// runChaosGrid solves both workloads over a steps-point grid of the mean
// time to compromise through the hardened pool. One worker keeps both the
// hook-hit order and the warm-start seeding order deterministic, so a
// plan's After/Count windows select the same solve — and every solve sees
// the same registry state — on every run. The baseline grid runs the same
// warm path with injection disabled, so fault runs are compared
// like-for-like.
func runChaosGrid(steps int, itemTimeout time.Duration, ver *shadow.Verifier) ([]float64, []error) {
	n := 2 * steps
	vals := make([]float64, n)
	env := chaosGridEnv{
		cache: nvrel.NewModelCache(),
		reg:   nvrel.NewWarmRegistry(),
		arena: linalg.NewArena(),
	}
	errs := parallel.ForEachHardened(context.Background(), n, func(ctx context.Context, i int) error {
		v, err := solveChaosPoint(ctx, env, i/steps, i%steps, steps, ver)
		if err != nil {
			return err
		}
		vals[i] = v
		return nil
	}, parallel.HardenedOptions{Workers: 1, MaxAttempts: 3, ItemTimeout: itemTimeout})
	return vals, errs
}

// solveChaosPoint builds and solves one grid point: the mean time to
// compromise swept over [1200, 1800] around the Table II default.
func solveChaosPoint(ctx context.Context, env chaosGridEnv, workload, j, steps int, ver *shadow.Verifier) (v float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "chaos.point")
	sp.Int("workload", int64(workload)).Int("step", int64(j))
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	mttc := 1200 + 600*float64(j)/float64(steps-1)
	var m *nvrel.Model
	if workload == 0 {
		p := nvrel.DefaultFourVersion()
		p.N = 24
		p.MeanTimeToCompromise = mttc
		m, err = env.cache.BuildNoRejuvenation(p)
	} else {
		p := nvrel.DefaultSixVersion()
		p.N = 10
		p.MeanTimeToCompromise = mttc
		m, err = env.cache.BuildWithRejuvenation(p)
	}
	if err != nil {
		return 0, err
	}
	ws := env.arena.Get()
	defer env.arena.Put(ws)
	start := time.Now()
	pi, diag, err := env.reg.Solve(ctx, ws, m)
	if err != nil {
		return 0, err
	}
	rel, err := m.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		return 0, err
	}
	arch := "4v"
	if workload != 0 {
		arch = "6v"
	}
	noteShadowSolve(ctx, "chaos", arch, m, pi, rel, diag, time.Since(start), ver)
	return rel, nil
}
