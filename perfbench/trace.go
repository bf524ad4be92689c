package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
	"nvrel/internal/warmstart"
)

// perLayer lists every per-layer metric with its unit; a traced run
// reports all of them, 0 where the workload does not exercise the layer.
var perLayer = []struct{ name, unit string }{
	{"parallel.utilization", "ratio"},
	{"parallel.speedup", "x"},
	{"nvp.build_us", "us"},
	{"nvp.solve_ms", "ms"},
	{"nvp.reward_us", "us"},
	{"nvp.cache_hit_ratio", "ratio"},
	{"nvp.alloc_kb", "KiB/op"},
	{"petri.explore_ms", "ms"},
	{"petri.explore_states", "count/op"},
	{"petri.restamp_us", "us"},
	{"petri.solve_us", "us"},
	{"petri.fallbacks", "count/op"},
	{"mrgp.dense_ms", "ms"},
	{"mrgp.sparse_ms", "ms"},
	{"mrgp.power_cycles", "count/op"},
	{"mrgp.fallbacks", "count/op"},
	{"linalg.matmul_us", "us"},
	{"linalg.matmul_gflops", "GFLOP/s"},
	{"linalg.matmul_bytes", "bytes-computed"},
	{"linalg.unif_terms", "count/op"},
	{"linalg.workspace_hit_ratio", "ratio"},
	{"warmstart.lookup_hit_ratio", "ratio"},
	{"warmstart.seed_accept_ratio", "ratio"},
	{"servecache.hit_ratio", "ratio"},
	{"servecache.fills", "count/op"},
	{"servecache.coalesced", "count/op"},
	{"servecache.get_us", "us"},
	{"serve.solves", "count/op"},
	{"serve.rejected_busy", "count/op"},
	{"serve.outside_us", "us"},
	{"self.bench_ms", "ms/op"},
	{"self.nvp_ms", "ms/op"},
	{"self.petri_ms", "ms/op"},
	{"self.mrgp_ms", "ms/op"},
	{"self.linalg_ms", "ms/op"},
	{"self.warmstart_ms", "ms/op"},
	{"self.servecache_ms", "ms/op"},
	{"trace.overhead_pct", "%"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// newLayerReport starts a traced report with every per-layer metric at 0.
func newLayerReport() *report {
	r := newReport()
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	return r
}

func (r *report) setLayer(name string, v float64) { r.set(name, v, layerUnit(name)) }

// exactCounters must repeat exactly between two single-worker passes over
// the same seeded inputs.
var exactCounters = []string{
	"mrgp.power.cycles", "linalg.unif.terms", "nvp.cache.hit", "nvp.cache.miss",
	"servecache.hit", "servecache.miss", "petri.explore.states",
}

// countedPass is one single-worker pass with obs counters on: it returns
// the wall time, the counter deltas and the bytes allocated. Probes turn
// counting off while they run, so the deltas cover only the nvp calls.
type countedPass struct {
	elapsed time.Duration
	counts  map[string]int64
	alloc   uint64
}

func runCounted(n int, op func(i int) error) (countedPass, error) {
	prev := obs.Enable()
	defer obs.SetEnabled(prev)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Capture().Counters
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return countedPass{}, err
		}
	}
	elapsed := time.Since(t0)
	after := obs.Capture().Counters
	runtime.ReadMemStats(&m1)
	return countedPass{elapsed: elapsed, counts: counterDelta(before, after), alloc: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// checkExact records a mismatch for every exact counter that differs
// between two passes.
func checkExact(rep *report, a, b map[string]int64) {
	for _, k := range exactCounters {
		if a[k] != b[k] {
			rep.mismatch("counter %s differs between two single-worker passes at one seed: %d vs %d", k, a[k], b[k])
		}
	}
}

// passFunc runs one single-worker pass over n operations, storing each
// answer in vals; with a recorder and a prober it is the traced pass.
type passFunc func(rec *Recorder, pr *prober, vals []float64) (countedPass, error)

// tracedPasses runs pass untraced, traced, then untraced again. The three
// must give bit-identical answers and the same exact counts. It fills the
// count- and span-based layer metrics, with the tracing overhead taken
// against the mean of the two untraced passes, and returns the first
// untraced pass, with its wall time replaced by that mean, and its
// answers.
func tracedPasses(rep *report, o options, n int, key func(i int) string, pr *prober, pass passFunc) (countedPass, []float64, error) {
	vals := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	rec := NewRecorder()
	var runs [3]countedPass
	for p := range runs {
		var err error
		if p == 1 {
			runs[p], err = pass(rec, pr, vals[p])
		} else {
			runs[p], err = pass(nil, nil, vals[p])
		}
		if err != nil {
			return countedPass{}, nil, err
		}
	}
	for i := 0; i < n; i++ {
		if vals[0][i] != vals[1][i] || vals[0][i] != vals[2][i] {
			rep.mismatch("%s: untraced %.17g and %.17g, traced %.17g", key(i), vals[0][i], vals[2][i], vals[1][i])
		}
	}
	checkExact(rep, runs[0].counts, runs[1].counts)
	checkExact(rep, runs[0].counts, runs[2].counts)
	untraced := runs[0]
	untraced.elapsed = (runs[0].elapsed + runs[2].elapsed) / 2
	layerFromCounts(rep, untraced, n)
	return untraced, vals[0], layerFromSpans(rep, rec, o, n, runs[1].elapsed, untraced.elapsed)
}

// tracedEval runs the nvp call sequence of one point with a span around
// each call, as children of parent; with a prober it then probes the
// layers underneath on the same model.
func tracedEval(rec *Recorder, pr *prober, s *solver, ws *linalg.Workspace, id int, parent uint64, pt point) (float64, error) {
	sp := rec.Start("nvp.build", parent, id)
	m, err := pt.build(s.cache)
	rec.End(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.Start("nvp.solve", parent, id)
	pi, _, err := s.warm.SolveDiagCtxWS(nil, m, ws)
	rec.End(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.Start("nvp.reward", parent, id)
	er, err := m.ExpectedPaperReliabilityFrom(pi)
	rec.End(sp)
	if err != nil {
		return 0, err
	}
	if pr != nil {
		if err := pr.probe(rec, parent, id, m); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
	}
	return er, nil
}

// matmulN and matmulReps size the Dense.MulInto probe: the six-version
// N=6 state count, eight products per probe.
const (
	matmulN    = 70
	matmulReps = 8
)

// prober calls the layers under nvp directly, on the model nvp just
// solved, with its own workspace and warm-start registry. Counting is off
// while it runs.
type prober struct {
	ws        *linalg.Workspace
	reg       *warmstart.Registry
	a, b, c   *linalg.Dense
	denseOnce bool // sparse workloads probe the dense kernel on one point only
	denseDone bool
}

func newProber(denseOnce bool) *prober {
	p := &prober{ws: linalg.NewWorkspace(), reg: warmstart.NewRegistry(), denseOnce: denseOnce}
	p.a, p.b, p.c = linalg.NewDense(matmulN, matmulN), linalg.NewDense(matmulN, matmulN), linalg.NewDense(matmulN, matmulN)
	for i := 0; i < matmulN; i++ {
		for j := 0; j < matmulN; j++ {
			p.a.Set(i, j, 1/float64(1+i+j))
			p.b.Set(i, j, 1/float64(1+(i*j)%matmulN))
		}
	}
	return p
}

func (p *prober) probe(rec *Recorder, parent uint64, id int, m *nvp.Model) error {
	prev := obs.Disable()
	defer obs.SetEnabled(prev)
	g := m.Graph
	sp := rec.Start("petri.explore", parent, id)
	_, err := petri.Explore(m.Net, petri.ExploreOptions{})
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Start("petri.restamp", parent, id)
	_, err = g.Restamp(m.Net)
	rec.End(sp)
	if err != nil {
		return err
	}
	switch {
	case m.Arch == nvp.NoRejuvenation:
		sp = rec.Start("petri.solve", parent, id)
		_, _, err = g.SteadyStateDiagCtxWS(nil, p.ws)
		rec.End(sp)
		return err
	case g.NumStates() < linalg.SparseThreshold:
		if err := p.dense(rec, parent, id, g); err != nil {
			return err
		}
		sp = rec.Start("linalg.matmul", parent, id)
		for r := 0; r < matmulReps && err == nil; r++ {
			err = p.c.MulInto(p.a, p.b)
		}
		rec.End(sp)
		return err
	default:
		key, sig := g.TopologyKey(), g.RateSignature(nil)
		sp = rec.Start("warmstart.lookup", parent, id)
		seed := p.reg.Lookup(key, sig)
		rec.End(sp)
		sp = rec.Start("mrgp.sparse", parent, id)
		sol, err := mrgp.SolveSparseSeededCtxWS(nil, p.ws, g, seed)
		rec.End(sp)
		if err != nil {
			return err
		}
		sp = rec.Start("warmstart.insert", parent, id)
		p.reg.Insert(key, sig, sol.Embedded)
		rec.End(sp)
		if p.denseOnce && p.denseDone {
			return nil
		}
		return p.dense(rec, parent, id, g)
	}
}

func (p *prober) dense(rec *Recorder, parent uint64, id int, g *petri.Graph) error {
	sp := rec.Start("mrgp.dense", parent, id)
	_, err := mrgp.SolveDenseWS(p.ws, g)
	rec.End(sp)
	p.denseDone = true
	return err
}

// layerFromCounts fills the count-based layer metrics from one counted
// pass over ops operations.
func layerFromCounts(rep *report, c countedPass, ops int) {
	n := int64(ops)
	k := c.counts
	rep.setLayer("nvp.cache_hit_ratio", ratio(k["nvp.cache.hit"], k["nvp.cache.hit"]+k["nvp.cache.miss"]))
	rep.setLayer("nvp.alloc_kb", float64(c.alloc)/1024/float64(ops))
	rep.setLayer("petri.explore_states", ratio(k["petri.explore.states"], n))
	rep.setLayer("petri.fallbacks", ratio(k["petri.solve.fallback_dense"]+k["petri.solve.fallback_power"], n))
	rep.setLayer("mrgp.power_cycles", ratio(k["mrgp.power.cycles"], k["mrgp.solve.routed_sparse"]))
	rep.setLayer("mrgp.fallbacks", ratio(k["mrgp.solve.fallback_dense"], n))
	rep.setLayer("linalg.unif_terms", ratio(k["linalg.unif.terms"], n))
	hits := sumPrefixSuffix(k, "linalg.workspace.", ".hit")
	rep.setLayer("linalg.workspace_hit_ratio", ratio(hits, hits+sumPrefixSuffix(k, "linalg.workspace.", ".miss")))
	rep.setLayer("warmstart.lookup_hit_ratio", ratio(k["warmstart.lookup.hit"], k["warmstart.lookup.hit"]+k["warmstart.lookup.miss"]))
	rep.setLayer("warmstart.seed_accept_ratio", ratio(k["linalg.seed.warm"], k["linalg.seed.warm"]+k["linalg.seed.rejected"]))
	if k["servecache.hit"]+k["servecache.miss"] > 0 {
		rep.note("in-process servecache replay: %d hits, %d misses", k["servecache.hit"], k["servecache.miss"])
	}
}

// poolUtilization is busy / (busy + idle) from the parallel.pool.*
// counter deltas.
func poolUtilization(k map[string]int64) float64 {
	return ratio(k["parallel.pool.busy_ns"], k["parallel.pool.busy_ns"]+k["parallel.pool.idle_ns"])
}

// layerFromSpans fills the span-based layer metrics: mean time per call
// of each wrapped function, self time per layer per operation, and the
// tracing overhead against the untraced pass.
func layerFromSpans(rep *report, rec *Recorder, o options, ops int, traced, untraced time.Duration) error {
	spans := rec.Spans()
	by := ByName(spans)
	rep.setLayer("nvp.build_us", by["nvp.build"].meanUS())
	rep.setLayer("nvp.solve_ms", by["nvp.solve"].meanMS())
	rep.setLayer("nvp.reward_us", by["nvp.reward"].meanUS())
	rep.setLayer("petri.explore_ms", by["petri.explore"].meanMS())
	rep.setLayer("petri.restamp_us", by["petri.restamp"].meanUS())
	rep.setLayer("petri.solve_us", by["petri.solve"].meanUS())
	rep.setLayer("mrgp.dense_ms", by["mrgp.dense"].meanMS())
	rep.setLayer("mrgp.sparse_ms", by["mrgp.sparse"].meanMS())
	if mm := by["linalg.matmul"]; mm.n > 0 {
		per := mm.meanUS() / matmulReps
		rep.setLayer("linalg.matmul_us", per)
		rep.setLayer("linalg.matmul_gflops", 2*matmulN*matmulN*matmulN/(per*1e3))
		rep.setLayer("linalg.matmul_bytes", 3*matmulN*matmulN*8)
	}
	layers := LayerSelf(spans)
	for _, l := range []string{"bench", "nvp", "petri", "mrgp", "linalg", "warmstart", "servecache"} {
		rep.setLayer("self."+l+"_ms", ms(layers[l])/float64(ops))
	}
	// Probes are extra work the untraced pass does not do; what remains
	// of the traced wall time is the nvp work plus the recording cost.
	var probe time.Duration
	for _, s := range spans {
		switch s.Layer() {
		case "petri", "mrgp", "linalg", "warmstart":
			probe += s.Dur()
		}
	}
	rep.setLayer("trace.overhead_pct", 100*(float64(traced-probe)/float64(untraced)-1))
	solve, kernel := map[int]time.Duration{}, map[string]map[int]time.Duration{"mrgp.dense": {}, "mrgp.sparse": {}}
	for _, s := range spans {
		if s.Name == "nvp.solve" {
			solve[s.Point] += s.Dur()
		} else if k, ok := kernel[s.Name]; ok {
			k[s.Point] += s.Dur()
		}
	}
	for _, name := range []string{"mrgp.sparse", "mrgp.dense"} {
		var ks, ss time.Duration
		for p, d := range kernel[name] {
			if name == "mrgp.dense" && kernel["mrgp.sparse"][p] > 0 {
				continue // a sparse point's dense probe is a different kernel from its solve
			}
			ks += d
			ss += solve[p]
		}
		if ss > 0 {
			rep.note("%s probe time is %.0f%% of nvp.solve time on the same points", name, 100*float64(ks)/float64(ss))
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("span %-18s n=%-6d mean %.4f ms", n, by[n].n, by[n].meanMS())
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := rec.WriteSpans(path); err != nil {
		return err
	}
	rep.note("spans written to %s (%d spans)", path, len(spans))
	return nil
}
