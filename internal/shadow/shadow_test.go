package shadow

import (
	"context"
	"strings"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// solvePrimary builds and solves a 4v model large enough for the sparse
// GS path (N=24 -> 325 states >= linalg.SparseThreshold), returning a
// ready-to-offer job.
func solvePrimary(t *testing.T, n int) (Job, *nvp.Model) {
	t.Helper()
	p := nvp.DefaultFourVersion()
	p.N = n
	model, err := nvp.BuildNoRejuvenation(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ws := linalg.NewWorkspace()
	pi, diag, err := model.Solve(context.Background(), ws, nvp.Opts{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		t.Fatalf("reward: %v", err)
	}
	cp := make([]float64, len(pi))
	copy(cp, pi)
	return Job{Arch: "4v", Params: p, KeyHash: "testkey", Pi: cp, Rel: rel, Diag: diag}, model
}

func newTestVerifier(t *testing.T, cfg Config) *Verifier {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	v := New(cfg)
	t.Cleanup(v.Close)
	return v
}

func TestShadowAgreesOnCleanSolve(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() { obs.Disable() })
	job, _ := solvePrimary(t, 24)
	if job.Diag.Path != petri.PathSparse {
		t.Fatalf("want sparse primary path, got %v", job.Diag.Path)
	}
	v := newTestVerifier(t, Config{})
	if !v.Offer(job) {
		t.Fatal("job not enqueued at rate 1")
	}
	v.Flush()
	st := v.Stats()
	if st.Sampled != 1 || st.Agree != 1 || st.Diverge != 0 || st.Errors != 0 {
		t.Fatalf("want 1 sampled / 1 agree, got %+v", st)
	}
	if obs.CounterFor("shadow.agree").Value() == 0 {
		t.Fatal("shadow.agree counter not incremented")
	}
	if !v.Healthy() {
		t.Fatal("verifier unhealthy after clean agreement")
	}
}

// TestShadowDetectsGSDrift is the acceptance test of the layer: a
// converged-but-wrong GS iterate (simplex-preserving 1e-4 mass
// transfer, invisible to every distribution guard) must be flagged by
// the independent GTH re-solve.
func TestShadowDetectsGSDrift(t *testing.T) {
	obs.EventsEnable()
	obs.EventsReset()
	t.Cleanup(obs.EventsReset)
	FlightEnable()
	t.Cleanup(FlightReset)

	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	if err := faultinject.Arm(faultinject.Fault{Site: "linalg.gs.drift", Count: 1}, 1); err != nil {
		t.Fatalf("arm: %v", err)
	}
	job, _ := solvePrimary(t, 24) // primary GS solve drifts once
	faultinject.Disable()         // shadow solves run clean

	RecordFlight(FlightRecord{Time: time.Now(), Source: "test", Arch: "4v", KeyHash: job.KeyHash, Path: job.Diag.Path.String()})

	v := newTestVerifier(t, Config{})
	v.Offer(job)
	v.Flush()
	st := v.Stats()
	if st.Diverge != 1 {
		t.Fatalf("drifted solve not detected: %+v", st)
	}
	if v.Healthy() {
		t.Fatal("verifier still healthy after divergence")
	}

	evs := obs.EventsSnapshot()
	var found bool
	for _, ev := range evs {
		if ev.Method == "shadow" && strings.Contains(ev.Error, "diverged") {
			found = true
			if ev.Key != job.KeyHash {
				t.Fatalf("divergence event key = %q, want %q", ev.Key, job.KeyHash)
			}
		}
	}
	if !found {
		t.Fatalf("no divergence event in ring: %+v", evs)
	}

	recs := FlightSnapshot()
	if len(recs) != 1 || recs[0].Shadow == nil {
		t.Fatalf("flight record missing shadow outcome: %+v", recs)
	}
	if oc := recs[0].Shadow; oc.Verdict != VerdictDiverge || oc.Rung != "gth" || oc.PiDelta <= DefaultPiTol {
		t.Fatalf("bad outcome %+v", oc)
	}
}

func TestShadowSkipsExhaustedChain(t *testing.T) {
	job, _ := solvePrimary(t, 24)
	job.Diag.Path = petri.PathSparseFallbackPower // whole chain consumed
	v := newTestVerifier(t, Config{})
	v.Offer(job)
	v.Flush()
	if st := v.Stats(); st.Skipped != 1 || st.Agree != 0 || st.Diverge != 0 {
		t.Fatalf("want 1 skipped, got %+v", st)
	}
}

func TestShadowSamplingDeterministic(t *testing.T) {
	v := newTestVerifier(t, Config{Rate: 0.5})
	keys := []string{"a1b2", "c3d4", "e5f6", "0719", "deadbeef", "cafe", "f00d", "1234"}
	first := make([]bool, len(keys))
	anyTrue, anyFalse := false, false
	for i, k := range keys {
		first[i] = v.Sampled(k)
		if first[i] {
			anyTrue = true
		} else {
			anyFalse = true
		}
	}
	for i, k := range keys {
		if v.Sampled(k) != first[i] {
			t.Fatalf("sampling of %q not deterministic", k)
		}
	}
	if !anyTrue || !anyFalse {
		t.Fatalf("rate 0.5 over %d keys selected all-or-none: %v", len(keys), first)
	}
	z := newTestVerifier(t, Config{Rate: -1}) // explicit zero-rate
	z.cfg.Rate = 0
	if z.Sampled("a1b2") {
		t.Fatal("rate 0 sampled a key")
	}
}

func TestShadowQueueOverflowSkips(t *testing.T) {
	job, _ := solvePrimary(t, 24)
	// Workers can't drain: close over a blocked verifier by filling the
	// queue faster than one worker solves. Use a tiny queue and many
	// offers; at least one must be shed, none may block.
	v := newTestVerifier(t, Config{Queue: 1, Workers: 1})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 32; i++ {
			v.Offer(job)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Offer blocked")
	}
	v.Flush()
	st := v.Stats()
	if st.Sampled != 32 || st.Agree+st.Diverge+st.Skipped+st.Errors != 32 {
		t.Fatalf("outcome counts don't partition sampled: %+v", st)
	}
}

func TestShadowOfferAfterCloseSkips(t *testing.T) {
	job, _ := solvePrimary(t, 24)
	v := New(Config{Rate: 1})
	v.Close()
	if v.Offer(job) {
		t.Fatal("Offer succeeded after Close")
	}
	if st := v.Stats(); st.Skipped != 1 {
		t.Fatalf("want skipped=1 after closed offer, got %+v", st)
	}
	v.Close() // idempotent
}

// TestShadowRungMatrix pins the path-diversity matrix: for every
// (solver, primary path) pair, the rung the shadow re-solve runs on and
// the primary label the shadow.agreement.<primary>_vs_<rung> histogram is
// named after.
func TestShadowRungMatrix(t *testing.T) {
	ctmc, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	mrgp, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	wp := nvp.DefaultSixVersion()
	wp.Clock = nvp.ClockWaitsForWave
	general, err := nvp.BuildWithRejuvenation(wp)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		model   *nvp.Model
		path    petri.SolvePath
		primary string
		want    string
	}{
		{ctmc, petri.PathSparse, "sparse", "gth"},
		{ctmc, petri.PathDense, "dense", "power"},
		{ctmc, petri.PathSparseFallbackDense, "sparse-fallback-dense", "power"},
		{ctmc, petri.PathDenseFallbackPower, "dense-fallback-power", "gs"},
		{ctmc, petri.PathSparseFallbackPower, "sparse-fallback-power", ""},
		{mrgp, petri.PathSparse, "mrgp-sparse", "mrgp-dense"},
		{mrgp, petri.PathDense, "mrgp-dense", "mrgp-sparse"},
		{mrgp, petri.PathSparseFallbackDense, "mrgp-dense", "mrgp-sparse"},
		{general, petri.PathDense, "", ""},
	}
	for _, c := range cases {
		diag := petri.SolveDiag{Path: c.path}
		if got := c.model.ShadowRung(diag); got != c.want {
			t.Errorf("%s ShadowRung(%v) = %q, want %q", c.model.SolverKind(), c.path, got, c.want)
		}
		if got := c.model.PrimaryPath(diag); got != c.primary {
			t.Errorf("%s PrimaryPath(%v) = %q, want %q", c.model.SolverKind(), c.path, got, c.primary)
		}
	}
}

func TestFlightRingWrapAndSnapshot(t *testing.T) {
	FlightEnable()
	t.Cleanup(FlightReset)
	SetFlightCapacity(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		RecordFlight(FlightRecord{Time: base.Add(time.Duration(i) * time.Second), KeyHash: string(rune('a' + i))})
	}
	recs := FlightSnapshot()
	if len(recs) != 4 {
		t.Fatalf("want 4 records after wrap, got %d", len(recs))
	}
	if recs[0].KeyHash != "c" || recs[3].KeyHash != "f" {
		t.Fatalf("ring order wrong: %+v", recs)
	}
	// Attach lands on the newest matching record.
	RecordFlight(FlightRecord{Time: base.Add(10 * time.Second), KeyHash: "dup"})
	RecordFlight(FlightRecord{Time: base.Add(11 * time.Second), KeyHash: "dup"})
	AttachOutcome("dup", &Outcome{Verdict: VerdictAgree})
	recs = FlightSnapshot()
	last := recs[len(recs)-1]
	prev := recs[len(recs)-2]
	if last.Shadow == nil || prev.Shadow != nil {
		t.Fatalf("outcome attached to wrong record: prev=%+v last=%+v", prev, last)
	}
	// Disabled recorder drops records and attaches silently.
	FlightReset()
	RecordFlight(FlightRecord{Time: base})
	AttachOutcome("x", &Outcome{Verdict: VerdictAgree})
	if FlightSnapshot() != nil {
		t.Fatal("disabled recorder retained records")
	}
}
