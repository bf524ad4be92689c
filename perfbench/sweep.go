package main

import (
	"fmt"
	"math/rand"
	"time"

	"nvrel"
	"nvrel/internal/linalg"
)

// callSweep runs one public-API sweep and returns its E[R] values in
// paperPoints order.
func callSweep(name string) ([]float64, error) {
	if name == "headline" {
		h, err := nvrel.Headline()
		return []float64{h.FourVersion, h.SixVersion}, err
	}
	var s nvrel.Series
	var err error
	switch name {
	case "fig3":
		s, err = nvrel.Fig3(nil)
	case "fig4a":
		s, err = nvrel.Fig4a(nil)
	case "fig4b":
		s, err = nvrel.Fig4b(nil)
	case "fig4c":
		s, err = nvrel.Fig4c(nil)
	case "fig4d":
		s, err = nvrel.Fig4d(nil)
	default:
		return nil, fmt.Errorf("unknown sweep %q", name)
	}
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, p := range s.Points {
		if name != "fig3" {
			out = append(out, p.FourVersion)
		}
		out = append(out, p.SixVersion)
	}
	return out, nil
}

// sweepCall is one timed sweep call and its answers.
type sweepCall struct {
	name string
	dur  time.Duration
	vals []float64
}

// paperPass runs the six sweeps once in the given order.
func paperPass(order []int) ([]sweepCall, error) {
	calls := make([]sweepCall, 0, len(order))
	for _, i := range order {
		name := paperSweeps[i]
		t0 := time.Now()
		vals, err := callSweep(name)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		calls = append(calls, sweepCall{name: name, dur: d, vals: vals})
	}
	return calls, nil
}

// checkPaper compares every answer with the reference table and returns
// how many answers it checked.
func checkPaper(rep *report, ref *refTable, calls []sweepCall) int64 {
	var n int64
	for _, c := range calls {
		pts := paperPoints(c.name)
		if len(pts) != len(c.vals) {
			rep.mismatch("%s returned %d values, want %d", c.name, len(c.vals), len(pts))
			continue
		}
		for i, pt := range pts {
			n++
			want, ok := ref.Values[pt.key()]
			switch {
			case !ok:
				rep.mismatch("%s point %s missing from the reference table", c.name, pt.key())
			case !within(c.vals[i], want):
				rep.mismatch("%s %s: got %.17g, reference %.17g", c.name, pt.key(), c.vals[i], want)
			}
		}
	}
	return n
}

// paperSetupPass is the first pass of a fresh process: exploration,
// workspace fill and warm-up of the process, all untimed elsewhere.
func paperSetupPass(o options) (float64, error) {
	rng := rand.New(rand.NewSource(o.seed))
	t0 := time.Now()
	if _, err := paperPass(rng.Perm(len(paperSweeps))); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// runPaperSweep measures paper-sweep: set-up is the median first pass of
// this process and of fresh children; then passes of the six sweep calls,
// in a seeded order per pass, repeat until the run time is used.
func runPaperSweep(o options) (*report, error) {
	ref, err := loadReference(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rng := rand.New(rand.NewSource(o.seed))

	t0 := time.Now()
	first, err := paperPass(rng.Perm(len(paperSweeps)))
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	rep.attempted += checkPaper(rep, ref, first)
	setups, err := setupSamples(o, setup)
	if err != nil {
		return nil, err
	}

	// Whole passes repeat until the run time is used; throughput is the
	// median over passes, so a short stall of the machine moves one pass,
	// not the figure.
	var calls []sweepCall
	var rates []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		pass, err := paperPass(rng.Perm(len(paperSweeps)))
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		failed := rep.failed
		n := checkPaper(rep, ref, pass)
		rep.attempted += n
		rates = append(rates, float64(n-(rep.failed-failed))/d.Seconds())
		calls = append(calls, pass...)
	}
	elapsed := time.Since(start)
	var lat []float64
	for _, c := range calls {
		lat = append(lat, ms(c.dur))
	}
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("ops_per_s", median(rates), "1/s")
	rep.set("op.p50_ms", pct(lat, 0.50), "ms")
	rep.set("op.p90_ms", pct(lat, 0.90), "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.note("ops are E[R] answers (%d per pass); ops_per_s is the median of %d passes; op latency is one public-API sweep call (%d calls in %.2fs)",
		len(allPaperPoints()), len(rates), len(calls), elapsed.Seconds())
	rep.note("pass throughput (1/s): %.1f", rates)
	rep.note("set-up passes (s): %.4f", setups)
	rep.note("peak_rss_mb is the benchmark process's VmHWM (in-process workload)")
	return rep, nil
}

// tracePaperSweep measures the per-layer metrics of paper-sweep: the
// public API at one and at all workers (pool utilization and speedup),
// then the single-worker passes of traceDirect over the same points
// through the nvp calls the sweeps make.
func tracePaperSweep(o options) (*report, error) {
	ref, err := loadReference(o)
	if err != nil {
		return nil, err
	}
	rep := newLayerReport()
	rng := rand.New(rand.NewSource(o.seed))
	order := rng.Perm(len(paperSweeps))

	// Public API: a warm-up pass fills the package caches, then one pass
	// at one worker and one at all workers with the pool counters on.
	if _, err := paperPass(order); err != nil {
		return nil, err
	}
	nvrel.SetWorkers(1)
	t0 := time.Now()
	if _, err := paperPass(order); err != nil {
		return nil, err
	}
	one := time.Since(t0)
	nvrel.SetWorkers(o.workers)
	all, err := runCounted(1, func(int) error { _, err := paperPass(order); return err })
	if err != nil {
		return nil, err
	}
	rep.setLayer("parallel.utilization", poolUtilization(all.counts))
	rep.setLayer("parallel.speedup", one.Seconds()/all.elapsed.Seconds())

	var pts []point
	for _, i := range order {
		pts = append(pts, paperPoints(paperSweeps[i])...)
	}
	vals, err := traceDirect(rep, o, pts, false, 0)
	if err != nil {
		return nil, err
	}
	rep.attempted = int64(len(pts))
	for i, pt := range pts {
		if want, ok := ref.Values[pt.key()]; !ok || !within(vals[i], want) {
			rep.mismatch("%s: got %.17g, reference %.17g (in table: %v)", pt.key(), vals[i], want, ok)
		}
	}
	return rep, nil
}

// traceDirect runs pts on one worker through the nvp calls, untraced,
// traced with probes and untraced again, with fresh caches each time, and
// fills the layer metrics. A non-zero allWorkers is the wall time of the
// same points at all workers; the untraced passes then give the speedup.
// It returns the answers of the first pass.
func traceDirect(rep *report, o options, pts []point, denseOnce bool, allWorkers time.Duration) ([]float64, error) {
	pass := func(rec *Recorder, pr *prober, vals []float64) (countedPass, error) {
		s := newSolver()
		ws := linalg.NewWorkspace()
		return runCounted(len(pts), func(i int) error {
			root := rec.Start("bench.point", 0, i)
			v, err := tracedEval(rec, pr, s, ws, i, root, pts[i])
			rec.End(root)
			vals[i] = v
			return err
		})
	}
	untraced, vals, err := tracedPasses(rep, o, len(pts), func(i int) string { return pts[i].key() }, newProber(denseOnce), pass)
	if err != nil {
		return nil, err
	}
	if allWorkers > 0 {
		rep.setLayer("parallel.speedup", untraced.elapsed.Seconds()/allWorkers.Seconds())
	}
	return vals, nil
}
