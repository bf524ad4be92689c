package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvrel"
	"nvrel/internal/faultinject"
	"nvrel/internal/fleethealth"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/petri"
	"nvrel/internal/servecache"
	"nvrel/internal/shadow"
)

// `nvrel serve` turns the batch solver into a long-running telemetry
// daemon: the same obs registry every solver package reports into is
// exported live over HTTP (Prometheus text on /metrics, JSON on
// /metrics.json, ring-buffer spans as Chrome trace-event JSON on
// /traces), and /solve accepts model specs over POST, solving them
// through the hardened pool — panic containment, worker rejuvenation,
// per-request deadline — under a concurrency limit.
//
// The serving-scale layer (DESIGN.md §11) sits in front of the solver:
// every /solve answer is cached under the canonical parameter-signature
// key (internal/servecache: bounded LRU + TTL, copy-on-read), identical
// in-flight requests coalesce onto one solve, /solve/batch amortizes
// graph work across requests sharing a topology, and a -peers ring
// partitions the key space across daemons, proxying non-owned keys to
// their owner so peer caches stop duplicating each other.

// Serve-layer metrics, following the <package>.<area>.<event> convention.
var (
	srvMetRequests      = obs.CounterFor("serve.request")
	srvMetRequestErrors = obs.CounterFor("serve.request.error")
	srvMetRequestSec    = obs.HistogramFor("serve.request.seconds",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10})
	srvMetSolveOK       = obs.CounterFor("serve.solve.ok")
	srvMetSolveErrors   = obs.CounterFor("serve.solve.error")
	srvMetSolveRejected = obs.CounterFor("serve.solve.rejected_busy")
	srvMetSolveTiming   = obs.TimingFor("serve.solve")
	srvMetSolveCompute  = obs.CounterFor("serve.solve.compute")
	srvMetBatch         = obs.CounterFor("serve.batch")
	srvMetBatchItems    = obs.CounterFor("serve.batch.items")
	srvMetBatchGroups   = obs.CounterFor("serve.batch.groups")
	srvMetProxy         = obs.CounterFor("serve.proxy")
	srvMetProxyErrors   = obs.CounterFor("serve.proxy.error")
)

// Peer-forwarding headers: Forwarded marks a request that already crossed
// the ring once (the receiver serves it locally, whatever the ring says,
// so two instances with disagreeing peer lists can never bounce a request
// forever), and Served-By names the instance whose solver/cache actually
// answered. Trace carries "<trace>-<span>" across the proxy hop so the
// owner's spans join the requesting instance's trace (and is returned on
// every response so clients can correlate with /traces).
const (
	forwardHeader  = "X-Nvrel-Forwarded"
	servedByHeader = "X-Nvrel-Served-By"
	traceHeader    = "X-Nvrel-Trace"
)

// errBusy marks an admission-control rejection inside the cache compute
// path so the handler can map it to 429 rather than 422.
var errBusy = errors.New("solver at max concurrency")

// serveConfig is the flag-settable daemon shape.
type serveConfig struct {
	addr            string
	maxConcurrent   int
	solveTimeout    time.Duration
	shutdownTimeout time.Duration
	traceRing       int
	cacheSize       int
	cacheTTL        time.Duration
	peers           string // comma-separated peer base URLs ("" = no sharding)
	self            string // this instance's own URL within -peers
	eventLog        string // JSON-lines request-event stream ("" = ring only)
	sloWindow       time.Duration
	sloAvailability float64
	sloLatency      time.Duration

	// Fleet resilience (DESIGN.md §13).
	peerTimeout        time.Duration // per-hop proxy client timeout
	peerRetries        int           // total attempts per proxied hop
	breakerFailures    int           // consecutive hop/probe failures that open a peer's breaker
	breakerCooldown    time.Duration // open → half-open delay
	probeInterval      time.Duration // background /readyz probe period (jittered)
	probeTimeout       time.Duration // one probe's deadline
	rejuvenateAfter    time.Duration // drain + exit after this long (0 = off)
	rejuvenateRequests int           // drain + exit after this many solve requests (0 = off)
	chaosPlan          string        // faultinject plan JSON armed at boot ("" = off)

	// Shadow verification & flight recorder (DESIGN.md §14).
	shadowRate    float64 // sampled fraction of solves re-solved on an independent rung (0 = off)
	shadowWorkers int     // shadow verification pool size (0 = 1)
	shadowQueue   int     // pending shadow jobs before shedding (0 = 64)
	shadowTol     float64 // agreement band on pi (L-inf) and E[R] (0 = shadow.DefaultPiTol)
	flightCap     int     // flight-recorder ring capacity (0 = keep current)
}

// server is the daemon state: the model cache shared by every request
// (concurrency-safe, reuses explored reachability graphs), a workspace
// arena (a linalg.Workspace is not goroutine-safe, so each in-flight
// solve borrows its own; the arena tops out at max-concurrency
// workspaces and never loses them to GC), the warm-start registry that
// seeds cache-miss solves from the nearest already-served neighbor, the
// solve-result cache with singleflight coalescing, the consistent-hash
// ring when peers are configured, the solve-concurrency semaphore, the
// readiness latch the warm-up solve flips, and the draining latch the
// shutdown path flips so load balancers stop routing before the drain.
type server struct {
	cfg      serveConfig
	cache    *nvrel.ModelCache
	warmReg  *nvrel.WarmRegistry
	arena    *linalg.Arena
	scache   *servecache.Cache[solveResult]
	ring     *servecache.Ring
	self     string
	httpc    *http.Client
	health   *fleethealth.Tracker
	retryCfg fleethealth.RetryConfig
	sem      chan struct{}
	slo      *obs.SLOTracker
	shadow   *shadow.Verifier // nil unless -shadow-rate > 0
	ready    atomic.Bool
	draining atomic.Bool
	start    time.Time

	// Rejuvenation latch: closed once when the -rejuvenate-after /
	// -rejuvenate-requests budget is spent, telling cmdServe to drain
	// and exit for a supervisor restart.
	solveReqs        atomic.Int64
	rejuvenateOnce   sync.Once
	rejuvenateC      chan struct{}
	rejuvenateReason string // written once inside rejuvenateOnce, read after rejuvenateC closes
}

func newServer(cfg serveConfig) *server {
	if cfg.maxConcurrent < 1 {
		cfg.maxConcurrent = 1
	}
	if cfg.peerTimeout <= 0 {
		cfg.peerTimeout = 10 * time.Second
	}
	if cfg.peerRetries <= 0 {
		cfg.peerRetries = 3
	}
	// Every daemon keeps the numerics flight recorder rolling; it is
	// one mutexed record per solve, far off any hot path.
	shadow.FlightEnable()
	if cfg.flightCap > 0 {
		shadow.SetFlightCapacity(cfg.flightCap)
	}
	s := &server{
		cfg:     cfg,
		cache:   nvrel.NewModelCache(),
		warmReg: nvrel.NewWarmRegistry(),
		arena:   linalg.NewArena(),
		scache:  servecache.New(cfg.cacheSize, cfg.cacheTTL, cloneSolveResult),
		// The proxy client is explicitly bounded: a per-hop timeout (a
		// wedged peer costs one hop, not the whole outer solve deadline)
		// and a capped idle pool so a flapping fleet can't accumulate
		// sockets.
		httpc: &http.Client{
			Timeout: cfg.peerTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		retryCfg: fleethealth.RetryConfig{Attempts: cfg.peerRetries},
		sem:      make(chan struct{}, cfg.maxConcurrent),
		slo: obs.NewSLOTracker(obs.SLOConfig{
			Window:       cfg.sloWindow,
			Availability: cfg.sloAvailability,
			Latency:      cfg.sloLatency,
		}),
		start:       time.Now(),
		rejuvenateC: make(chan struct{}),
	}
	if cfg.shadowRate > 0 {
		s.shadow = shadow.New(shadow.Config{
			Rate:    cfg.shadowRate,
			PiTol:   cfg.shadowTol,
			RelTol:  cfg.shadowTol,
			Workers: cfg.shadowWorkers,
			Queue:   cfg.shadowQueue,
			Timeout: cfg.solveTimeout,
			Source:  "serve",
		})
	}
	return s
}

// configureRing validates the -peers/-self pair and installs the
// consistent-hash ring. Every peer must be given the identical peer set
// (order-free) for the instances to agree on ownership.
func (s *server) configureRing(peers, self string) error {
	if peers == "" {
		if strings.TrimSpace(self) != "" {
			return fmt.Errorf("-self %q given without -peers", self)
		}
		return nil
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/"))
		if p != "" {
			list = append(list, p)
		}
	}
	ring, err := servecache.NewRing(list)
	if err != nil {
		return err
	}
	self = strings.TrimSuffix(strings.TrimSpace(self), "/")
	if self == "" {
		return fmt.Errorf("-peers requires -self (this instance's own URL within the peer list)")
	}
	found := false
	for _, p := range list {
		if p == self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("-self %q is not in -peers %q", self, peers)
	}
	s.ring = ring
	s.self = self
	var others []string
	for _, p := range list {
		if p != self {
			others = append(others, p)
		}
	}
	s.health = fleethealth.NewTracker(fleethealth.Config{
		Breaker: fleethealth.BreakerConfig{
			FailureThreshold: s.cfg.breakerFailures,
			Cooldown:         s.cfg.breakerCooldown,
		},
		ProbeInterval: s.cfg.probeInterval,
		ProbeTimeout:  s.cfg.probeTimeout,
	}, others)
	return nil
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter and latency
// histogram feeding the same registry the daemon exports, and scores
// solve traffic against the SLO tracker — an availability violation is a
// shed request (429) or a server-side failure (5xx), never a client
// error (4xx means the request itself was wrong, not the service).
func (s *server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		elapsed := time.Since(t0)
		srvMetRequests.Inc()
		srvMetRequestSec.Observe(elapsed.Seconds())
		if sw.status >= 400 {
			srvMetRequestErrors.Inc()
		}
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/solve") {
			s.slo.Record(elapsed, sw.status == http.StatusTooManyRequests || sw.status >= 500)
			s.noteSolveRequest()
		}
	})
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness plus the daemon's own verdict on itself: a sharded
		// daemon reports per-peer breaker position and probe history
		// (the prober keeps this fresh with no solve traffic flowing),
		// and every daemon reports the numerics field — the shadow
		// verifier's outcome counts, with status "diverging" once any
		// sampled solve has disagreed across solver paths.
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.healthSnapshot())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Draining wins over ready: the drain path flips this latch before
		// http.Server.Shutdown so load balancers stop routing new work while
		// in-flight requests finish, instead of racing the listener close.
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "warming up")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w); err != nil {
			srvMetRequestErrors.Inc()
		}
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m := obs.NewManifest()
		m.Command = "serve"
		m.Workers = parallel.Workers()
		m.WallSeconds = time.Since(s.start).Seconds()
		doc := metricsDoc{Manifest: m, Metrics: obs.Capture()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		obs.WriteTraceEvents(w)
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []obs.Event `json:"events"`
		}{obs.EventsSnapshot()})
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		// Drain pending shadow verifications first so the dump carries
		// verdicts, not in-flight blanks; the queue is bounded, so this
		// waits at most a few background solves.
		s.shadow.Flush()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(flightDoc{Flight: shadow.FlightSnapshot(), Shadow: s.shadow.Stats()})
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.slo.Report())
	})
	mux.HandleFunc("GET /cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		doc := s.clusterSnapshot(r)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := doc.Merged.WritePrometheus(w); err != nil {
			srvMetRequestErrors.Inc()
		}
	})
	mux.HandleFunc("GET /cluster/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		doc := s.clusterSnapshot(r)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve/batch", s.handleBatch)
	return s.instrument(mux)
}

// clusterSnapshot scrapes the fleet (or just this instance when no ring
// is configured, or when the request already crossed the ring once — the
// same one-hop guard the solve proxy uses, so two peers can never scrape
// each other forever).
func (s *server) clusterSnapshot(r *http.Request) clusterDoc {
	peers := []string{localPeerName}
	local := localPeerName
	if s.ring != nil {
		peers = s.ring.Peers()
		local = s.self
	}
	if r.Header.Get(forwardHeader) != "" || s.ring == nil {
		peers = []string{local}
	}
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	doc := scrapeCluster(ctx, s.httpc, peers, local)
	if s.health != nil {
		// The local peer's snapshot never crossed HTTP, so attach its
		// fleet-health view from the in-process tracker.
		if doc.Health == nil {
			doc.Health = map[string]healthDoc{}
		}
		doc.Health[local] = s.healthSnapshot()
	}
	return doc
}

// beginDrain flips /readyz to 503 ahead of connection draining.
func (s *server) beginDrain() { s.draining.Store(true) }

// solveRequest is the POST /solve body. Pointer fields distinguish
// "absent" from zero so the defaults mirror the solve subcommand exactly:
// parameters start from the 6v defaults, and -arch 4v resets N to 4 and R
// to 0 unless the request pins them.
type solveRequest struct {
	Arch           string   `json:"arch"` // "4v" or "6v" (default "6v")
	N              *int     `json:"n,omitempty"`
	F              *int     `json:"f,omitempty"`
	R              *int     `json:"r,omitempty"`
	Alpha          *float64 `json:"alpha,omitempty"`
	P              *float64 `json:"p,omitempty"`
	PPrime         *float64 `json:"pprime,omitempty"`
	MTTC           *float64 `json:"mttc,omitempty"`
	MTTF           *float64 `json:"mttf,omitempty"`
	MTTR           *float64 `json:"mttr,omitempty"`
	MTRJ           *float64 `json:"mtrj,omitempty"`
	Interval       *float64 `json:"interval,omitempty"`
	TimeoutSeconds float64  `json:"timeout_seconds,omitempty"`
}

// params resolves the request into a full parameter vector plus the
// architecture, mirroring cmdSolve's defaulting.
func (req *solveRequest) params() (nvrel.Params, string, error) {
	arch := req.Arch
	if arch == "" {
		arch = "6v"
	}
	if arch != "4v" && arch != "6v" {
		return nvrel.Params{}, "", fmt.Errorf("unknown architecture %q (want \"4v\" or \"6v\")", arch)
	}
	p := nvrel.DefaultSixVersion()
	if arch == "4v" {
		if req.N == nil {
			p.N = 4
		}
		if req.R == nil {
			p.R = 0
		}
	}
	if req.N != nil {
		p.N = *req.N
	}
	if req.F != nil {
		p.F = *req.F
	}
	if req.R != nil {
		p.R = *req.R
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setF(&p.Alpha, req.Alpha)
	setF(&p.P, req.P)
	setF(&p.PPrime, req.PPrime)
	setF(&p.MeanTimeToCompromise, req.MTTC)
	setF(&p.MeanTimeToFailure, req.MTTF)
	setF(&p.MeanTimeToRepair, req.MTTR)
	setF(&p.MeanTimeToRejuvenate, req.MTRJ)
	setF(&p.RejuvenationInterval, req.Interval)
	return p, arch, nil
}

// solveSignature is the normalized parameter signature of a resolved
// request: every solver input as a float64, in a fixed layout. It plays
// the same role the rate signature plays inside internal/warmstart —
// there compared by L1 distance to rank neighbors, here rendered exactly
// (servecache.Key) so only bit-identical parameter points share a cache
// slot. N/F/R and the reliability mix are included because they enter the
// reliability function even when they leave the rates untouched.
func solveSignature(p nvrel.Params) []float64 {
	return []float64{
		float64(p.N), float64(p.F), float64(p.R),
		p.Alpha, p.P, p.PPrime,
		p.MeanTimeToCompromise, p.MeanTimeToFailure, p.MeanTimeToRepair,
		p.MeanTimeToRejuvenate, p.RejuvenationInterval,
		float64(p.Semantics), float64(p.Clock),
	}
}

// solveKey is the canonical cache/ring key of a resolved request.
func solveKey(arch string, p nvrel.Params) string {
	return servecache.Key(arch, solveSignature(p))
}

// attemptJSON is one failed fallback rung in the response diagnostics.
type attemptJSON struct {
	Solver string `json:"solver"`
	Sweeps int    `json:"sweeps,omitempty"`
	Error  string `json:"error"`
}

// solveDiagJSON mirrors petri.SolveDiag for the response body.
type solveDiagJSON struct {
	States     int           `json:"states"`
	Path       string        `json:"path,omitempty"`
	GSSweeps   int           `json:"gs_sweeps,omitempty"`
	PowerIters int           `json:"power_iters,omitempty"`
	Seeded     bool          `json:"seeded,omitempty"`
	SeedSource string        `json:"seed_source,omitempty"`
	Fallback   string        `json:"fallback,omitempty"`
	Attempts   []attemptJSON `json:"attempts,omitempty"`
}

// solveResult is the cacheable core of a solve: everything about the
// answer, nothing about the request that produced it (elapsed time, trace
// and cache status are per-request and attached at response time).
type solveResult struct {
	arch        string
	solver      string
	states      int
	reliability float64
	diag        *solveDiagJSON
}

// cloneSolveResult deep-copies the result so servecache storage is never
// aliased by a response writer.
func cloneSolveResult(v solveResult) solveResult {
	if v.diag != nil {
		d := *v.diag
		d.Attempts = append([]attemptJSON(nil), v.diag.Attempts...)
		v.diag = &d
	}
	return v
}

// solveResponse is the POST /solve reply. Cache says how the serving
// layer answered: "miss" (this request solved), "hit" (served from the
// result cache without entering the solver — hence no Trace), or
// "coalesced" (shared an identical in-flight solve). TraceID is this
// request's own trace (set for every answer, hits and coalesced waiters
// included), correlating the response with /traces and /events.
type solveResponse struct {
	Arch           string            `json:"arch"`
	Solver         string            `json:"solver"`
	States         int               `json:"states"`
	Reliability    float64           `json:"reliability"`
	Cache          string            `json:"cache,omitempty"`
	Degraded       bool              `json:"degraded,omitempty"` // owner unreachable; solved locally off-ring
	TraceID        string            `json:"trace_id,omitempty"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Diag           *solveDiagJSON    `json:"diag,omitempty"`
	Trace          []obs.SpanSummary `json:"trace,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// remoteTraceCtx joins the request to an upstream trace when the proxy
// hop carried one, so spans recorded here share the originating
// instance's trace ID.
func remoteTraceCtx(r *http.Request) context.Context {
	ctx := r.Context()
	if trace, span, ok := obs.ParseTraceHeader(r.Header.Get(traceHeader)); ok {
		ctx = obs.ContextWithRemoteSpan(ctx, trace, span)
	}
	return ctx
}

// keyHash is the short stable digest of a cache key used in request
// events: enough to correlate requests for the same parameter point
// without reproducing the full parameter vector per event.
func keyHash(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ctx, sp := obs.StartSpan(remoteTraceCtx(r), "serve.request")
	defer sp.End()
	sp.Str("endpoint", "/solve")
	traceID := obs.FormatTraceID(sp.TraceID())
	if traceID != "" {
		w.Header().Set(traceHeader, traceID)
	}
	ev := obs.Event{Method: "solve", TraceID: traceID, Status: http.StatusOK}
	defer func() {
		ev.LatencySeconds = time.Since(t0).Seconds()
		obs.RecordEvent(ev)
	}()

	var req solveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		ev.Status, ev.Error = http.StatusBadRequest, err.Error()
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p, arch, err := req.params()
	if err != nil {
		ev.Status, ev.Error = http.StatusBadRequest, err.Error()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := solveKey(arch, p)
	ev.Key = keyHash(key)
	// Ring ownership: a non-owned key is proxied to its owner (once — the
	// forward header stops a second hop), so the peers' caches partition
	// the model space instead of each holding a copy of everything. A hop
	// that fails terminally — breaker open, retries exhausted — falls
	// through to a DEGRADED local solve: same answer (solves are pure),
	// worse cache partitioning, zero client-visible errors.
	degraded := false
	if s.ring != nil && r.Header.Get(forwardHeader) == "" {
		if owner := s.ring.Owner(key); owner != s.self {
			ev.Cache = "proxied"
			if s.proxySolve(ctx, w, owner, &req, &ev) {
				return
			}
			degraded = true
			ev.Cache = ""
		}
	}
	// A client may shorten the solve deadline, never extend it past the
	// server's -solve-timeout (0 = unbounded): one request must not buy
	// unbounded CPU.
	timeout := s.cfg.solveTimeout
	if c := time.Duration(req.TimeoutSeconds * float64(time.Second)); c > 0 && (timeout <= 0 || c < timeout) {
		timeout = c
	}
	resp, code, err := s.solveCached(ctx, key, arch, p, timeout)
	if err != nil {
		srvMetSolveErrors.Inc()
		ev.Status, ev.Error = code, err.Error()
		httpError(w, code, "%v", err)
		return
	}
	srvMetSolveOK.Inc()
	if degraded {
		srvMetDegraded.Inc()
		resp.Degraded = true
		ev.Degraded = true
	}
	resp.TraceID = traceID
	ev.Cache, ev.ServedBy = resp.Cache, s.self
	if resp.Diag != nil {
		ev.Path, ev.Seeded, ev.SeedSource = resp.Diag.Path, resp.Diag.Seeded, resp.Diag.SeedSource
	}
	if s.self != "" {
		w.Header().Set(servedByHeader, s.self)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// solveCached answers one resolved request through the result cache: a
// hit returns the stored answer without touching the solver, an identical
// in-flight solve is joined, and only an actual miss runs the solver —
// behind admission control, so cache hits are never 429'd. The solve runs
// detached from the requesting client's cancellation (coalesced waiters
// may outlive the leader's connection) but still under the per-request
// deadline.
func (s *server) solveCached(ctx context.Context, key, arch string, p nvrel.Params, timeout time.Duration) (*solveResponse, int, error) {
	t0 := time.Now()
	var trace []obs.SpanSummary
	res, st, err := s.scache.GetOrCompute(key, func() (solveResult, error) {
		// Admission control: never queue more solves than the semaphore
		// allows — a busy daemon answers 429 immediately rather than
		// accumulating goroutines until memory runs out. Only real solves
		// consume a slot.
		select {
		case s.sem <- struct{}{}:
		default:
			srvMetSolveRejected.Inc()
			return solveResult{}, fmt.Errorf("%w (%d in flight)", errBusy, s.cfg.maxConcurrent)
		}
		defer func() { <-s.sem }()
		r, tr, err := s.solveUncached(context.WithoutCancel(ctx), arch, p, timeout)
		trace = tr
		return r, err
	})
	elapsed := time.Since(t0)
	srvMetSolveTiming.Record(elapsed)
	if err != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, errBusy):
			code = http.StatusTooManyRequests
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		}
		return nil, code, err
	}
	resp := &solveResponse{
		Arch:           res.arch,
		Solver:         res.solver,
		States:         res.states,
		Reliability:    res.reliability,
		Cache:          st.String(),
		ElapsedSeconds: elapsed.Seconds(),
		Diag:           res.diag,
		Trace:          trace, // non-nil only for the flight leader
	}
	return resp, http.StatusOK, nil
}

// solveUncached runs one solve through the hardened pool with a
// per-request deadline. The result matches the batch `nvrel solve` output
// bit-for-bit: same model cache semantics, same solver routing, same
// reliability summation order.
func (s *server) solveUncached(ctx context.Context, arch string, p nvrel.Params, timeout time.Duration) (solveResult, []obs.SpanSummary, error) {
	srvMetSolveCompute.Inc()
	sctx, sp := obs.StartSpan(ctx, "serve.solve")
	sp.Str("arch", arch)
	var res solveResult

	// One item through the hardened pool: a panicking solver is recovered
	// into a typed error (and the worker goroutine retired), and the
	// ItemTimeout deadline bounds the solve even if a kernel wedges
	// between context checks.
	errs := parallel.ForEachHardened(sctx, 1, func(ictx context.Context, _ int) error {
		ws := s.arena.Get()
		defer s.arena.Put(ws)
		r, err := s.solveModel(ictx, arch, p, ws)
		if err != nil {
			return err
		}
		res = r
		return nil
	}, parallel.HardenedOptions{Workers: 1, MaxAttempts: 2, ItemTimeout: timeout})
	sp.Err(errs[0])
	sp.End()
	if errs[0] != nil {
		return solveResult{}, nil, errs[0]
	}
	var trace []obs.SpanSummary
	if trid := sp.TraceID(); trid != 0 {
		trace = obs.SummarizeTrace(obs.CollectTrace(trid))
	}
	return res, trace, nil
}

// flightDoc is the GET /debug/flight payload: the numerics flight ring
// oldest-first plus the shadow verifier's outcome counts.
type flightDoc struct {
	Flight []shadow.FlightRecord `json:"flight"`
	Shadow shadow.Stats          `json:"shadow"`
}

// noteSolved files one completed primary solve with the numerics flight
// recorder and, when shadow verification is enabled, offers it to the
// deterministic sampler. Both are strictly off the request path: one
// mutexed ring write plus a non-blocking channel send.
func (s *server) noteSolved(ctx context.Context, arch string, model *nvrel.Model, pi []float64, rel float64, diag petri.SolveDiag, elapsed time.Duration) {
	noteShadowSolve(ctx, "serve", arch, model, pi, rel, diag, elapsed, s.shadow)
}

// noteShadowSolve is the driver-agnostic half of noteSolved, shared by
// serve, sweep, and chaos: one flight-ring write plus an optional
// sampler offer (ver nil = flight record only).
func noteShadowSolve(ctx context.Context, source, arch string, model *nvrel.Model, pi []float64, rel float64, diag petri.SolveDiag, elapsed time.Duration, ver *shadow.Verifier) {
	kh := keyHash(solveKey(arch, model.Params))
	trid := obs.SpanFromContext(ctx).TraceID()
	rec := shadow.FlightRecord{
		Time:           time.Now().UTC(),
		Source:         source,
		Arch:           arch,
		KeyHash:        kh,
		States:         diag.States,
		Solver:         model.SolverKind(),
		GSSweeps:       diag.GSSweeps,
		PowerIters:     diag.PowerIters,
		Residual:       diag.Residual,
		Seeded:         diag.Seeded,
		SeedSource:     diag.SeedSource,
		ElapsedSeconds: elapsed.Seconds(),
	}
	if trid != 0 {
		rec.TraceID = obs.FormatTraceID(trid)
	}
	if model.SolverKind() == "ctmc" {
		rec.Path = diag.Path.String()
	}
	if diag.Fallback != nil {
		rec.Fallback = diag.Fallback.Error()
	}
	shadow.RecordFlight(rec)
	if ver != nil {
		// The verifier keeps the distribution past this solve's
		// lifetime; hand it a copy, the solve buffer goes back to its
		// workspace/arena owner.
		cp := make([]float64, len(pi))
		copy(cp, pi)
		ver.Offer(shadow.Job{
			Arch:    arch,
			Params:  model.Params,
			KeyHash: kh,
			TraceID: trid,
			Pi:      cp,
			Rel:     rel,
			Diag:    diag,
		})
	}
}

// solveModel builds and solves one parameter point on the caller's
// workspace: model-cache graph reuse, warm-start seeding from the
// nearest already-served neighbor, paper reliability summation. Both the
// single-solve path and the batch group loop land here.
func (s *server) solveModel(ctx context.Context, arch string, p nvrel.Params, ws *linalg.Workspace) (solveResult, error) {
	var (
		model *nvrel.Model
		err   error
	)
	if arch == "4v" {
		model, err = s.cache.BuildNoRejuvenation(p)
	} else {
		model, err = s.cache.BuildWithRejuvenation(p)
	}
	if err != nil {
		return solveResult{}, err
	}
	return s.solveBuilt(ctx, arch, model, ws)
}

// solveBuilt solves an already-built model (the batch path restamps and
// groups models before solving).
func (s *server) solveBuilt(ctx context.Context, arch string, model *nvrel.Model, ws *linalg.Workspace) (solveResult, error) {
	solveStart := time.Now()
	pi, diag, err := s.warmReg.Solve(ctx, ws, model)
	if err != nil {
		return solveResult{}, err
	}
	elapsed := time.Since(solveStart)
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		return solveResult{}, err
	}
	s.noteSolved(ctx, arch, model, pi, rel, diag, elapsed)
	res := solveResult{
		arch:        arch,
		solver:      model.SolverKind(),
		states:      diag.States,
		reliability: rel,
	}
	d := &solveDiagJSON{States: diag.States, Seeded: diag.Seeded, SeedSource: diag.SeedSource, PowerIters: diag.PowerIters}
	if res.solver == "ctmc" {
		d.Path = diag.Path.String()
		d.GSSweeps = diag.GSSweeps
	}
	if diag.Fallback != nil {
		d.Fallback = diag.Fallback.Error()
	}
	for _, a := range diag.Attempts {
		d.Attempts = append(d.Attempts, attemptJSON{Solver: a.Solver, Sweeps: a.Sweeps, Error: a.Err.Error()})
	}
	res.diag = d
	return res, nil
}

// warmUp solves the default six-version model once so the first real
// request doesn't pay exploration cost (and the result cache opens with
// its most popular entry), then flips readiness. A failing warm-up leaves
// the daemon not-ready (and loudly logged) rather than dead: /metrics and
// /healthz stay useful for diagnosis.
func (s *server) warmUp(out io.Writer) {
	req := solveRequest{Arch: "6v"}
	p, arch, err := req.params()
	if err == nil {
		_, _, err = s.solveCached(context.Background(), solveKey(arch, p), arch, p, s.cfg.solveTimeout)
	}
	if err != nil {
		fmt.Fprintf(out, "nvrel serve: warm-up solve failed: %v\n", err)
		return
	}
	s.ready.Store(true)
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg serveConfig
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8077", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", 4, "max in-flight /solve requests before 429")
	fs.DurationVar(&cfg.solveTimeout, "solve-timeout", 30*time.Second, "default per-request solve deadline")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
	fs.IntVar(&cfg.traceRing, "trace-ring", obs.DefaultTraceCapacity, "span ring-buffer capacity")
	fs.IntVar(&cfg.cacheSize, "cache-size", 4096, "solve-result cache capacity in entries (0 = unbounded)")
	fs.DurationVar(&cfg.cacheTTL, "cache-ttl", 15*time.Minute, "solve-result cache entry lifetime (0 = never expires)")
	fs.StringVar(&cfg.peers, "peers", "", "comma-separated peer base URLs for consistent-hash sharding (include this instance)")
	fs.StringVar(&cfg.self, "self", "", "this instance's own base URL within -peers")
	fs.StringVar(&cfg.eventLog, "event-log", "", "append request events as JSON lines to this file (\"\" = in-memory ring only)")
	fs.DurationVar(&cfg.sloWindow, "slo-window", 5*time.Minute, "SLO rolling evaluation window")
	fs.Float64Var(&cfg.sloAvailability, "slo-availability", 0.999, "availability objective scored at /slo")
	fs.DurationVar(&cfg.sloLatency, "slo-latency", time.Second, "p99 latency objective scored at /slo")
	fs.DurationVar(&cfg.peerTimeout, "peer-timeout", 10*time.Second, "per-hop proxy client timeout (one attempt, not the whole retry budget)")
	fs.IntVar(&cfg.peerRetries, "peer-retries", 3, "total attempts per proxied hop before degraded local fallback")
	fs.IntVar(&cfg.breakerFailures, "breaker-failures", 3, "consecutive hop/probe failures that open a peer's circuit breaker")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open trial")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "peer /readyz probe period (full-jitter)")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", 2*time.Second, "one health probe's deadline")
	fs.DurationVar(&cfg.rejuvenateAfter, "rejuvenate-after", 0, "drain and exit cleanly after this long, for a supervisor restart (0 = off)")
	fs.IntVar(&cfg.rejuvenateRequests, "rejuvenate-requests", 0, "drain and exit cleanly after this many solve requests (0 = off)")
	fs.StringVar(&cfg.chaosPlan, "chaos-plan", "", "arm this faultinject plan JSON at boot (transport.* sites hit the outbound proxy hops)")
	fs.Float64Var(&cfg.shadowRate, "shadow-rate", 0, "fraction of solves re-solved on an independent solver path and cross-checked (0 = off)")
	fs.IntVar(&cfg.shadowWorkers, "shadow-workers", 1, "shadow verification worker pool size")
	fs.IntVar(&cfg.shadowQueue, "shadow-queue", 64, "pending shadow verifications before shedding (skipped, never blocking)")
	fs.Float64Var(&cfg.shadowTol, "shadow-tol", shadow.DefaultPiTol, "cross-path agreement band on the distribution (L-inf) and E[R]")
	fs.IntVar(&cfg.flightCap, "flight-ring", 0, "numerics flight-recorder capacity in solves (0 = default 256)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A telemetry daemon with dark telemetry would be pointless: serve
	// always collects metrics, spans, and request events, whatever the
	// global flags say.
	obs.Enable()
	if cfg.traceRing > 0 && cfg.traceRing != obs.DefaultTraceCapacity {
		obs.SetTraceCapacity(cfg.traceRing)
	}
	obs.TraceEnable()
	obs.EventsEnable()
	if cfg.eventLog != "" {
		f, err := os.OpenFile(cfg.eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: -event-log: %w", err)
		}
		obs.SetEventSink(f)
		defer func() {
			obs.SetEventSink(nil)
			f.Close()
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s := newServer(cfg)
	if err := s.configureRing(cfg.peers, cfg.self); err != nil {
		ln.Close()
		return fmt.Errorf("serve: %w", err)
	}
	if s.ring != nil {
		fmt.Fprintf(out, "nvrel serve: sharding across %d peers as %s\n", len(s.ring.Peers()), s.self)
	}
	if cfg.chaosPlan != "" {
		data, err := os.ReadFile(cfg.chaosPlan)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: -chaos-plan: %w", err)
		}
		plan, err := faultinject.ParsePlan(data)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: -chaos-plan: %w", err)
		}
		for _, f := range plan.Faults {
			if err := faultinject.Arm(f, plan.Seed); err != nil {
				ln.Close()
				return fmt.Errorf("serve: -chaos-plan: %w", err)
			}
		}
		faultinject.Enable()
		// Every outbound hop — proxied solves, sub-batches, probes,
		// cluster scrapes — rides the chaos transport.
		s.httpc.Transport = faultinject.NewTransport(s.httpc.Transport)
		fmt.Fprintf(out, "nvrel serve: chaos plan %s armed (%d faults, seed %d)\n",
			cfg.chaosPlan, len(plan.Faults), plan.Seed)
	}
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "nvrel serve: listening on http://%s\n", ln.Addr())
	go s.warmUp(out)
	if s.health != nil {
		stopProbe := s.health.StartProber(context.Background(), s.httpc)
		defer stopProbe()
	}
	stopRejuvenate := s.rejuvenateTimer()
	defer stopRejuvenate()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	case <-s.rejuvenateC:
		fmt.Fprintf(out, "nvrel serve: rejuvenating (%s): draining for supervisor restart\n", s.rejuvenateReason)
	}
	stop()
	// Flip /readyz before draining: load balancers and health checkers see
	// not-ready while in-flight requests complete, instead of only after
	// the listener is already gone.
	s.beginDrain()
	fmt.Fprintln(out, "nvrel serve: shutting down, draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	// Let queued shadow verifications finish so their verdicts reach the
	// metrics and the event log before the process exits.
	s.shadow.Close()
	return nil
}
