package main

import (
	"math/rand"
	"time"

	"nvrel/internal/parallel"
)

// solvePass solves pts once at the given worker count with a fresh model
// cache, warm-start registry and workspace arena, and returns each point's
// answer and wall time.
func solvePass(pts []point, workers int) ([]float64, []time.Duration, error) {
	s := newSolver()
	vals := make([]float64, len(pts))
	durs := make([]time.Duration, len(pts))
	err := parallel.ForEachN(workers, len(pts), func(i int) error {
		ws := s.arena.Get()
		defer s.arena.Put(ws)
		t0 := time.Now()
		v, err := s.eval(ws, pts[i])
		durs[i] = time.Since(t0)
		vals[i] = v
		return err
	})
	return vals, durs, err
}

// sparseSetupPass is the set-up of a fresh process: exploration of the
// 247-state graph, sparse plan, workspace fill and the first point of
// each worker.
func sparseSetupPass(o options) (float64, error) {
	t0 := time.Now()
	_, _, err := solvePass(sparsePoints(o.seed, o.workers), o.workers)
	return time.Since(t0).Seconds(), err
}

// sampleChecks is how many points of a seed the reference table does
// not cover are re-solved on the reference rung after the timed window.
const sampleChecks = 4

// verifyPoints checks answers against the reference: the committed table
// where it has the point, otherwise a seeded sample of the uncovered
// points re-solved on the reference rung here. Every answer of a checked
// point must agree. It returns the number of points checked and, per
// point and answer, whether the answer was wrong.
func verifyPoints(rep *report, o options, ref *refTable, pts []point, answers [][]float64) (int, [][]bool) {
	bad := make([][]bool, len(pts))
	for i := range pts {
		bad[i] = make([]bool, len(answers[i]))
	}
	check := func(i int, want float64, source string) {
		for j, got := range answers[i] {
			if !within(got, want) {
				bad[i][j] = true
				rep.mismatch("%s: got %.17g, %s %.17g", pts[i].key(), got, source, want)
			}
		}
	}
	var uncovered []int
	checked := 0
	for i, pt := range pts {
		want, ok := ref.Values[pt.key()]
		if !ok {
			uncovered = append(uncovered, i)
			continue
		}
		checked++
		check(i, want, "reference")
	}
	if len(uncovered) == 0 {
		return checked, bad
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(uncovered), func(i, j int) { uncovered[i], uncovered[j] = uncovered[j], uncovered[i] })
	if len(uncovered) > sampleChecks {
		uncovered = uncovered[:sampleChecks]
	}
	sample := make([]point, len(uncovered))
	for j, i := range uncovered {
		sample[j] = pts[i]
	}
	wants, _, err := referenceAll(sample, o.workers)
	if err != nil {
		rep.mismatch("reference re-solve: %v", err)
		return checked, bad
	}
	for j, i := range uncovered {
		checked++
		check(i, wants[j], "re-solved reference")
	}
	return checked, bad
}

// runSparse measures sparse-n12: set-up is the median of the set-up
// passes of this process and of fresh children; then passes over the
// seeded point list, each with fresh caches, repeat until the run time is
// used.
func runSparse(o options) (*report, error) {
	ref, err := loadReference(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	pts := sparsePoints(o.seed, sparsePointsPerPass)
	answers := make([][]float64, len(pts))
	collect := func(vals []float64) {
		for i, v := range vals {
			answers[i] = append(answers[i], v)
		}
		rep.attempted += int64(len(vals))
	}

	first, err := sparseSetupPass(o)
	if err != nil {
		return nil, err
	}
	setups, err := setupSamples(o, first)
	if err != nil {
		return nil, err
	}

	// Passes repeat until the run time is used; throughput is the median
	// over passes, so a short stall of the machine moves one pass, not the
	// figure. Wrong answers are found after the window and taken off the
	// pass that gave them.
	var lat, passSecs []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		vals, durs, err := solvePass(pts, o.workers)
		if err != nil {
			return nil, err
		}
		passSecs = append(passSecs, time.Since(t0).Seconds())
		collect(vals)
		for _, d := range durs {
			lat = append(lat, ms(d))
		}
	}
	elapsed := time.Since(start)

	checked, badAnswer := verifyPoints(rep, o, ref, pts, answers)
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), "s")
	rates := make([]float64, len(passSecs))
	for p, secs := range passSecs {
		good := len(pts)
		for i := range pts {
			if badAnswer[i][p] {
				good--
			}
		}
		rates[p] = float64(good) / secs
	}
	rep.set("ops_per_s", median(rates), "1/s")
	rep.set("op.p50_ms", pct(lat, 0.50), "ms")
	rep.set("op.p90_ms", pct(lat, 0.90), "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.note("ops are N=12 points; ops_per_s is the median of %d passes of %d points at %d workers (%.2fs)", len(passSecs), len(pts), o.workers, elapsed.Seconds())
	rep.note("pass throughput (1/s): %.3f", rates)
	rep.note("set-up passes (s): %.4f", setups)
	rep.note("%d of %d points checked against the reference rung (every answer of each)", checked, len(pts))
	rep.note("peak_rss_mb is the benchmark process's VmHWM (in-process workload)")
	return rep, nil
}

// traceSparsePoints is how many of the seeded points the traced run
// solves: it solves each five times (once at all workers, three times on
// one worker, once more in the sparse probe).
const traceSparsePoints = 8

// traceSparse measures the per-layer metrics of sparse-n12 on the first
// points of the seeded list: one pass at all workers with the pool
// counters on, then the single-worker passes of traceDirect, whose
// untraced ones are also the single-worker side of the speedup.
func traceSparse(o options) (*report, error) {
	ref, err := loadReference(o)
	if err != nil {
		return nil, err
	}
	rep := newLayerReport()
	pts := sparsePoints(o.seed, sparsePointsPerPass)[:traceSparsePoints]
	var vals []float64
	all, err := runCounted(1, func(int) error {
		var err error
		vals, _, err = solvePass(pts, o.workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.setLayer("parallel.utilization", poolUtilization(all.counts))
	answers := make([][]float64, len(pts))
	for i, v := range vals {
		answers[i] = []float64{v}
	}
	rep.attempted = int64(len(pts))
	verifyPoints(rep, o, ref, pts, answers)

	if _, err := traceDirect(rep, o, pts, true, all.elapsed); err != nil {
		return nil, err
	}
	return rep, nil
}
