// Package shadow is the N-version self-checking layer of the serving
// stack: for a sampled fraction of production solves it re-solves the
// same parameter point on a deliberately different numerical path (the
// rung chosen by nvp.Model.ShadowRung) and compares the two steady-state
// distributions against tight agreement bands. The fallback chain and
// the distribution guards catch solves that fail loudly; the shadow
// layer exists for the one class they cannot catch — a solve that
// converges to a plausible but wrong answer. Divergences increment
// shadow.diverge, land as structured events in the obs event ring, and
// flip the /healthz numerics field, so a silent numerical regression
// becomes a paging signal instead of a quietly wrong reliability curve.
//
// Verification runs on its own worker pool with its own model cache and
// workspace arena, strictly off the request path: the caller hands over
// a copy of the primary result and returns immediately. A full queue
// sheds load (shadow.skipped) rather than back-pressuring the server,
// so enabling shadowing leaves request latency untouched.
package shadow

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// Default agreement tolerances. Every rung pair shares them: GS accepts
// at a 1e-14 relative-delta floor, GTH is direct elimination (exact to
// rounding), and uniformized power iterates to the same family of
// stopping rules, so honest solves of the paper's models (hundreds of
// states, well-conditioned generators) agree to ~1e-12 in L-inf. 1e-9
// leaves three orders of headroom for conditioning while still sitting
// five orders below the smallest corruption worth catching (the
// linalg.gs.drift chaos site moves 1e-4 of the modal mass).
const (
	DefaultPiTol  = 1e-9
	DefaultRelTol = 1e-9
)

// Verdict labels for a completed shadow comparison.
const (
	VerdictAgree   = "agree"
	VerdictDiverge = "diverge"
	VerdictSkipped = "skipped"
	VerdictError   = "error"
)

// agreementBounds bucket the observed L-inf disagreement between the
// primary and shadow distributions. The interesting structure is all
// below 1e-8 (honest agreement) and above 1e-6 (corruption), so the
// bands tighten there.
var agreementBounds = []float64{1e-16, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2, 1}

// Aggregate counters, resolved once like the solver metrics. The
// verifier additionally keeps per-instance atomics so /healthz can
// report its own numerics status even when several verifiers share the
// process (tests, self-serve loadgen).
var (
	metSampled = obs.CounterFor("shadow.sampled")
	metAgree   = obs.CounterFor("shadow.agree")
	metDiverge = obs.CounterFor("shadow.diverge")
	metSkipped = obs.CounterFor("shadow.skipped")
	metError   = obs.CounterFor("shadow.error")
)

// Config sizes a Verifier.
type Config struct {
	// Rate is the sampled fraction of solves in [0, 1]. Sampling is a
	// deterministic hash of the cache key, so a given parameter point is
	// either always or never shadowed at a fixed rate — reruns are
	// reproducible and the sampled set is stable across peers.
	Rate float64
	// PiTol is the L-inf agreement band on the steady-state
	// distribution (default DefaultPiTol).
	PiTol float64
	// RelTol is the absolute agreement band on E[R_sys] (default
	// DefaultRelTol).
	RelTol float64
	// Workers is the verification pool size (default 1); shadow solves
	// are deliberately cheap background work.
	Workers int
	// Queue bounds the pending-job channel (default 64). A full queue
	// skips rather than blocks.
	Queue int
	// Timeout bounds one shadow solve (default 30s).
	Timeout time.Duration
	// Source tags flight records and events ("serve", "sweep", ...).
	Source string
}

// Job is one sampled primary solve handed to the verifier. Pi must be a
// copy the verifier may keep.
type Job struct {
	Arch    string // "4v" | "6v"
	Params  nvp.Params
	KeyHash string
	TraceID uint64
	Pi      []float64
	Rel     float64
	Diag    petri.SolveDiag
}

// Stats is a point-in-time read of one verifier's outcome counts.
// Sampled == Agree+Diverge+Skipped+Errors once the queue is drained.
type Stats struct {
	Sampled int64 `json:"sampled"`
	Agree   int64 `json:"agree"`
	Diverge int64 `json:"diverge"`
	Skipped int64 `json:"skipped"`
	Errors  int64 `json:"errors"`
}

// Verifier owns the shadow worker pool. It builds models through its
// own cache and solves on its own arena so verification never contends
// with the request path for warm state.
type Verifier struct {
	cfg   Config
	cache *nvp.ModelCache
	arena *linalg.Arena

	mu      sync.RWMutex // guards jobs vs Close
	closed  bool
	jobs    chan Job
	workers sync.WaitGroup
	pending sync.WaitGroup

	sampled atomic.Int64
	agree   atomic.Int64
	diverge atomic.Int64
	skipped atomic.Int64
	errs    atomic.Int64
}

// New starts a verifier with cfg's pool. Callers must Close it.
func New(cfg Config) *Verifier {
	if cfg.PiTol <= 0 {
		cfg.PiTol = DefaultPiTol
	}
	if cfg.RelTol <= 0 {
		cfg.RelTol = DefaultRelTol
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Source == "" {
		cfg.Source = "serve"
	}
	v := &Verifier{
		cfg:   cfg,
		cache: nvp.NewModelCache(),
		arena: linalg.NewArena(),
		jobs:  make(chan Job, cfg.Queue),
	}
	v.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer v.workers.Done()
			for job := range v.jobs {
				v.verify(job)
			}
		}()
	}
	return v
}

// Sampled reports whether the deterministic sampler selects keyHash at
// the configured rate: the upper 53 bits of an FNV-64a rehash of the
// key hash, mapped to [0, 1).
func (v *Verifier) Sampled(keyHash string) bool {
	if v.cfg.Rate <= 0 {
		return false
	}
	if v.cfg.Rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(keyHash))
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return u < v.cfg.Rate
}

// Offer samples the job and, when selected, enqueues it for async
// verification. It never blocks: a full queue counts the job as
// skipped. Returns whether the job was enqueued.
func (v *Verifier) Offer(job Job) bool {
	if v == nil || !v.Sampled(job.KeyHash) {
		return false
	}
	v.sampled.Add(1)
	metSampled.Inc()
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		v.skipped.Add(1)
		metSkipped.Inc()
		return false
	}
	v.pending.Add(1)
	select {
	case v.jobs <- job:
		return true
	default:
		v.pending.Done()
		v.skipped.Add(1)
		metSkipped.Inc()
		return false
	}
}

// Flush blocks until every enqueued job has been verified. Drivers call
// it before reading counters or dumping flight state.
func (v *Verifier) Flush() {
	if v == nil {
		return
	}
	v.pending.Wait()
}

// Close drains the queue and stops the workers. Offers after Close are
// counted as skipped.
func (v *Verifier) Close() {
	if v == nil {
		return
	}
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return
	}
	v.closed = true
	close(v.jobs)
	v.mu.Unlock()
	v.workers.Wait()
}

// Stats snapshots this verifier's outcome counts.
func (v *Verifier) Stats() Stats {
	if v == nil {
		return Stats{}
	}
	return Stats{
		Sampled: v.sampled.Load(),
		Agree:   v.agree.Load(),
		Diverge: v.diverge.Load(),
		Skipped: v.skipped.Load(),
		Errors:  v.errs.Load(),
	}
}

// Healthy reports whether no divergence has been observed.
func (v *Verifier) Healthy() bool { return v == nil || v.diverge.Load() == 0 }

// verify runs one shadow comparison on a worker goroutine.
func (v *Verifier) verify(job Job) {
	defer v.pending.Done()
	start := time.Now()
	oc := &Outcome{}
	finish := func() {
		oc.ElapsedSeconds = time.Since(start).Seconds()
		AttachOutcome(job.KeyHash, oc)
	}

	var (
		model *nvp.Model
		err   error
	)
	if job.Arch == "4v" {
		model, err = v.cache.BuildNoRejuvenation(job.Params)
	} else {
		model, err = v.cache.BuildWithRejuvenation(job.Params)
	}
	if err != nil {
		v.fail(job, oc, "", fmt.Errorf("rebuild model: %w", err))
		finish()
		return
	}
	rung := model.ShadowRung(job.Diag)
	oc.Rung = rung
	if rung == "" {
		// The primary already exhausted the chain (or the architecture
		// has a single formulation); nothing independent to compare.
		v.skipped.Add(1)
		metSkipped.Inc()
		oc.Verdict = VerdictSkipped
		finish()
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), v.cfg.Timeout)
	ws := v.arena.Get()
	pi, _, err := model.Solve(ctx, ws, nvp.Opts{Rung: rung})
	v.arena.Put(ws)
	cancel()
	if err != nil {
		v.fail(job, oc, rung, fmt.Errorf("shadow rung %s: %w", rung, err))
		finish()
		return
	}
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		v.fail(job, oc, rung, fmt.Errorf("shadow rung %s reward: %w", rung, err))
		finish()
		return
	}

	primary := model.PrimaryPath(job.Diag)
	piDelta := linfDelta(job.Pi, pi)
	relDelta := math.Abs(job.Rel - rel)
	oc.PiDelta, oc.RelDelta = piDelta, relDelta
	obs.HistogramFor("shadow.agreement."+primary+"_vs_"+rung, agreementBounds).Observe(piDelta)

	if piDelta > v.cfg.PiTol || relDelta > v.cfg.RelTol {
		v.diverge.Add(1)
		metDiverge.Inc()
		oc.Verdict = VerdictDiverge
		ev := obs.Event{
			Time:           time.Now().UTC(),
			Method:         "shadow",
			Key:            job.KeyHash,
			Path:           primary,
			LatencySeconds: time.Since(start).Seconds(),
			Error: fmt.Sprintf("shadow diverged on rung %s: |dpi|=%.3g (tol %.3g) |dR|=%.3g (tol %.3g)",
				rung, piDelta, v.cfg.PiTol, relDelta, v.cfg.RelTol),
		}
		if job.TraceID != 0 {
			ev.TraceID = obs.FormatTraceID(job.TraceID)
		}
		obs.RecordEvent(ev)
	} else {
		v.agree.Add(1)
		metAgree.Inc()
		oc.Verdict = VerdictAgree
	}
	finish()
}

// fail records a shadow solve that itself errored. A broken shadow path
// is evidence too — it shows up in metrics and the flight ring rather
// than vanishing.
func (v *Verifier) fail(job Job, oc *Outcome, rung string, err error) {
	v.errs.Add(1)
	metError.Inc()
	oc.Verdict = VerdictError
	oc.Error = err.Error()
	ev := obs.Event{
		Time:   time.Now().UTC(),
		Method: "shadow",
		Key:    job.KeyHash,
		Error:  err.Error(),
	}
	if rung != "" {
		ev.Path = rung
	}
	if job.TraceID != 0 {
		ev.TraceID = obs.FormatTraceID(job.TraceID)
	}
	obs.RecordEvent(ev)
}

// linfDelta is the L-inf distance between two distributions; length
// mismatch (a reachability-graph discrepancy, the worst possible
// divergence) saturates to 1.
func linfDelta(a, b []float64) float64 {
	if len(a) != len(b) {
		return 1
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}
