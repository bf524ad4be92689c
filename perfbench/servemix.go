package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"nvrel/internal/linalg"
	"nvrel/internal/servecache"
)

// serve-mix traffic: a base stretch at baseRate, a ladder of higher fixed
// rates to find capacity, then a closed-loop stretch on one connection.
// The base stretch takes baseShare of the run time, the closed one about
// closedShare (its request count is sized at closedRate, near what one
// connection gets through on 2 CPUs) and the ladder steps split the rest.
const (
	baseRate    = 400.0
	baseShare   = 0.5
	closedRate  = 800.0
	closedShare = 0.2
	// sloLimit is the latency limit on each stretch's p99, counted from
	// the due time; failed or refused requests miss it.
	sloLimit = 250 * time.Millisecond
	// setupSpawns is how many daemons each run starts to time set-up; the
	// last one serves the traffic.
	setupSpawns = 15
	// failedLatency stands in for the latency of a failed request.
	failedLatency = 60 * time.Second
)

var ladderRates = []float64{800, 1300, 2000}

func servePhases(seconds float64) []phase {
	total := time.Duration(seconds * float64(time.Second))
	base := time.Duration(float64(total) * baseShare)
	closed := time.Duration(float64(total) * closedShare)
	phases := []phase{{Rate: baseRate, Dur: base}}
	step := (total - base - closed) / time.Duration(len(ladderRates))
	for _, r := range ladderRates {
		phases = append(phases, phase{Rate: r, Dur: step})
	}
	return append(phases, phase{Rate: closedRate, Dur: closed, Closed: true})
}

// connections is the number of client connections: at most one per CPU,
// and at most the daemon's default admission limit (-max-concurrent 4),
// so the open loop never provokes a 429 by itself.
func connections(workers int) int { return min(workers, 4) }

// serveExpected solves every distinct point of the schedule in-process
// through the same nvp calls the daemon makes, at all workers, after the
// daemon has stopped.
func serveExpected(reqs []schedReq, workers int) (map[string]float64, error) {
	var pts []point
	seen := map[string]bool{}
	for _, r := range reqs {
		if k := r.Pt.key(); !seen[k] {
			seen[k] = true
			pts = append(pts, r.Pt)
		}
	}
	vals, _, err := solvePass(pts, workers)
	if err != nil {
		return nil, err
	}
	want := make(map[string]float64, len(pts))
	for i, pt := range pts {
		want[pt.key()] = vals[i]
	}
	return want, nil
}

// checkServe marks every request failed that got no answer or a wrong
// one, and returns the per-request pass/fail flags.
func checkServe(rep *report, reqs []schedReq, outs []outcome, want map[string]float64) []bool {
	good := make([]bool, len(reqs))
	for i, r := range reqs {
		o := outs[i]
		rep.attempted++
		switch {
		case !o.ok():
			rep.failed++
			if rep.failed <= 10 {
				rep.note("request %d failed: %v", i, o.Err)
			}
		case !within(o.Reliability, want[r.Pt.key()]):
			rep.mismatch("request %d %s: daemon %.17g, in-process %.17g", i, r.Pt.key(), o.Reliability, want[r.Pt.key()])
		default:
			good[i] = true
		}
	}
	return good
}

// stretch summarizes the requests of one phase.
type stretch struct {
	rate, dur          float64
	closed             bool
	n, good, inLimit   int
	first, last        time.Duration // first send and last answer
	lat, late          []float64     // ms from due, ms of send lateness
	hit, miss          []float64     // ms from due, by cache status
	hitSend            []float64     // ms from send, hits only
	backlogGrowing     bool
	lateEarly, lateEnd float64
}

func summarize(reqs []schedReq, outs []outcome, good []bool, phases []phase) []stretch {
	st := make([]stretch, len(phases))
	for i, ph := range phases {
		st[i].rate, st[i].dur, st[i].closed = ph.Rate, ph.Dur.Seconds(), ph.Closed
	}
	idx := make([][]int, len(phases))
	for i, r := range reqs {
		idx[r.Phase] = append(idx[r.Phase], i)
	}
	for p, ids := range idx {
		s := &st[p]
		for k, i := range ids {
			o := outs[i]
			if k == 0 || o.Send < s.first {
				s.first = o.Send
			}
			s.last = max(s.last, o.End)
			l := o.End - reqs[i].Due
			if s.closed {
				// Every closed-loop request is due at the start; its own
				// latency is the time from its send.
				l = o.End - o.Send
			}
			if !good[i] {
				l = failedLatency
			}
			s.n++
			s.lat = append(s.lat, ms(l))
			s.late = append(s.late, ms(o.Send-reqs[i].Due))
			if !good[i] {
				continue
			}
			s.good++
			if l <= sloLimit {
				s.inLimit++
			}
			if o.Cache == "hit" {
				s.hit = append(s.hit, ms(l))
				s.hitSend = append(s.hitSend, ms(o.End-o.Send))
			} else {
				s.miss = append(s.miss, ms(l))
			}
		}
		// A backlog grows when the requests of the stretch's last quarter
		// leave later than those of its first quarter.
		if q := len(s.late) / 4; q > 0 && !s.closed {
			s.lateEarly, s.lateEnd = median(s.late[:q]), median(s.late[len(s.late)-q:])
			s.backlogGrowing = s.lateEnd > s.lateEarly+ms(sloLimit)/10
		}
	}
	return st
}

// meets reports whether a stretch met the latency limit on its p99 with
// every answer correct and no growing backlog.
func (s stretch) meets() bool {
	return s.n > 0 && s.good == s.n && pct(s.lat, 0.99) <= ms(sloLimit) && !s.backlogGrowing
}

// capacity is the offered rate of the highest stretch that meets the
// limit, climbing from the base rate and stopping at the first stretch
// that does not; 0 when even the base stretch misses it.
func capacity(st []stretch) float64 {
	var rate float64
	for _, s := range st {
		if s.closed || !s.meets() {
			break
		}
		rate = s.rate
	}
	return rate
}

// throughput is the correct answers per second from the stretch's first
// send to its last answer.
func (s stretch) throughput() float64 { return float64(s.good) / (s.last - s.first).Seconds() }

// serveRun starts the daemons, sends the schedule and stops the last
// daemon. It returns the set-up samples, the outcomes, the daemon's
// counter deltas over the traffic and its peak RSS.
type serveRun struct {
	setups []float64
	outs   []outcome
	counts map[string]int64
	rssMB  float64
}

func runDaemonTraffic(o options, phases []phase, reqs []schedReq, spawns int) (serveRun, error) {
	var r serveRun
	var d *daemon
	for i := 0; i < spawns; i++ {
		dd, ready, err := startDaemon(o.nvrelBin)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, ready.Seconds())
		if i < spawns-1 {
			if err := dd.stop(); err != nil {
				return r, err
			}
			continue
		}
		d = dd
	}
	fail := func(err error) (serveRun, error) {
		d.kill()
		return r, err
	}
	if err := prefill(d.url, reqs); err != nil {
		return fail(err)
	}
	before, err := d.counters()
	if err != nil {
		return fail(err)
	}
	// The open-loop stretches share one clock; the closed-loop stretch, last
	// in the schedule, runs after them on one connection, so a request is
	// never queued behind another connection's solve and no CPU idles.
	nOpen := len(reqs)
	for nOpen > 0 && phases[reqs[nOpen-1].Phase].Closed {
		nOpen--
	}
	r.outs = runOpenLoop(context.Background(), d.url, reqs[:nOpen], connections(o.workers))
	closed := make([]schedReq, len(reqs)-nOpen)
	copy(closed, reqs[nOpen:])
	for i := range closed {
		closed[i].Due = 0
	}
	r.outs = append(r.outs, runOpenLoop(context.Background(), d.url, closed, 1)...)
	after, err := d.counters()
	if err != nil {
		return fail(err)
	}
	r.counts = counterDelta(before, after)
	if r.rssMB, err = vmHWM(d.cmd.Process.Pid); err != nil {
		return fail(err)
	}
	return r, d.stop()
}

// prefill asks once, one request at a time and untimed, for every hot
// and grid point the schedule uses, so the timed traffic sees the
// daemon's cache in its steady state: hot and grid points hit, cold
// points miss. Users of a long-running daemon do not pay the first fill
// of its working set on every request.
func prefill(url string, reqs []schedReq) error {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	seen := map[string]bool{}
	for _, r := range reqs {
		k := r.Pt.key()
		if r.Class == "cold" || seen[k] {
			continue
		}
		seen[k] = true
		if o := send(context.Background(), client, url, r.Body, time.Now()); !o.ok() {
			return fmt.Errorf("prefill %s: %v", r.Body, o.Err)
		}
	}
	return nil
}

// runServeMix measures serve-mix end to end.
func runServeMix(o options) (*report, error) {
	rep := newReport()
	phases := servePhases(o.seconds)
	reqs := buildSchedule(o.seed, phases)
	run, err := runDaemonTraffic(o, phases, reqs, setupSpawns)
	if err != nil {
		return nil, err
	}
	want, err := serveExpected(reqs, o.workers)
	if err != nil {
		return nil, err
	}
	good := checkServe(rep, reqs, run.outs, want)
	st := summarize(reqs, run.outs, good, phases)
	base := st[0]
	closed := st[len(st)-1]
	capRate := capacity(st)

	rep.set("setup_s", median(run.setups), "s")
	rep.set("ops_per_s", closed.throughput(), "1/s")
	rep.set("op.p50_ms", pct(closed.lat, 0.50), "ms")
	rep.set("op.p90_ms", pct(closed.lat, 0.90), "ms")
	rep.set("peak_rss_mb", run.rssMB, "MiB")
	rep.set("req.p50_ms", pct(base.lat, 0.50), "ms")
	rep.set("req.p99_ms", pct(base.lat, 0.99), "ms")
	rep.set("hit.p50_ms", pct(base.hit, 0.50), "ms")
	rep.set("hit.p99_ms", pct(base.hit, 0.99), "ms")
	rep.set("miss.p50_ms", pct(base.miss, 0.50), "ms")
	rep.set("miss.p90_ms", pct(base.miss, 0.90), "ms")
	rep.set("slo_attainment", ratio(int64(base.inLimit), int64(base.n)), "ratio")
	rep.set("capacity_rps", capRate, "1/s")
	rep.set("gen.late_p50_ms", pct(base.late, 0.50), "ms")
	rep.set("gen.late_p99_ms", pct(base.late, 0.99), "ms")
	rep.note("ops are /solve requests; ops_per_s and op.* are the closed-loop stretch (%d requests, latency from send); req.*, hit.*, miss.*, slo_attainment and gen.* are the open-loop base stretch at %.0f rps, latency from due time",
		closed.n, baseRate)
	rep.note("base stretch: %d requests, %d hits, %d misses/coalesced, %d connections, limit p99 <= %v",
		base.n, len(base.hit), len(base.miss), connections(o.workers), sloLimit)
	for i, s := range st {
		if s.closed {
			rep.note("stretch %d: closed loop, one connection, %d sent, %.0f answers/s, p50 %.3f ms, p99 %.2f ms from send",
				i, s.n, s.throughput(), pct(s.lat, 0.5), pct(s.lat, 0.99))
			continue
		}
		rep.note("stretch %d: %.0f rps offered, %d sent, p50 %.3f ms, hit p50 %.3f ms, p99 %.2f ms, late p50 %.3f ms (first quarter) -> %.3f ms (last), meets limit %v",
			i, s.rate, s.n, pct(s.lat, 0.5), pct(s.hit, 0.5), pct(s.lat, 0.99), s.lateEarly, s.lateEnd, s.meets())
	}
	if capRate == 0 {
		rep.note("no stretch met the limit")
	} else if capRate == ladderRates[len(ladderRates)-1] {
		rep.note("capacity is at least the top ladder rate (%.0f rps)", capRate)
	}
	rep.note("set-up (spawn to /readyz 200, s): %.4f", run.setups)
	rep.note("peak_rss_mb is the daemon's VmHWM")
	return rep, nil
}

// traceServeMix measures the per-layer metrics of serve-mix: the daemon's
// counters over the base and closed-loop stretches, and the same seeded
// key sequence replayed in-process through servecache and nvp, untraced
// and traced.
func traceServeMix(o options) (*report, error) {
	rep := newLayerReport()
	// The base stretch and the closed-loop one: the closed loop keeps the
	// CPUs busy, so its hit time is service time, not vCPU wake-ups.
	all := servePhases(o.seconds)
	phases := []phase{all[0], all[len(all)-1]}
	reqs := buildSchedule(o.seed, phases)
	run, err := runDaemonTraffic(o, phases, reqs, 1)
	if err != nil {
		return nil, err
	}
	want, err := serveExpected(reqs, o.workers)
	if err != nil {
		return nil, err
	}
	good := checkServe(rep, reqs, run.outs, want)
	st := summarize(reqs, run.outs, good, phases)
	closed := st[len(st)-1]

	k := run.counts
	lookups := k["servecache.hit"] + k["servecache.miss"] + k["servecache.coalesced"]
	n := int64(len(reqs))
	rep.setLayer("servecache.hit_ratio", ratio(k["servecache.hit"], lookups))
	rep.setLayer("servecache.fills", ratio(k["servecache.fill"], n))
	rep.setLayer("servecache.coalesced", ratio(k["servecache.coalesced"], n))
	rep.setLayer("serve.solves", ratio(k["serve.solve.compute"], n))
	rep.setLayer("serve.rejected_busy", ratio(k["serve.solve.rejected_busy"], n))
	rep.setLayer("parallel.utilization", poolUtilization(k))
	rep.note("daemon: %d requests, servecache hit %d miss %d coalesced %d fill %d, solves %d",
		n, k["servecache.hit"], k["servecache.miss"], k["servecache.coalesced"], k["servecache.fill"], k["serve.solve.compute"])

	// In-process replay of the same key sequence on one worker, after the
	// same untimed prefill of the hot and grid keys the daemon got.
	var hitDurs []time.Duration
	replay := func(rec *Recorder, pr *prober, vals []float64) (countedPass, error) {
		s := newSolver()
		ws := linalg.NewWorkspace()
		cache := servecache.New[float64](0, 0, func(v float64) float64 { return v })
		seen := map[string]bool{}
		for _, r := range reqs {
			if k := r.Pt.key(); r.Class != "cold" && !seen[k] {
				seen[k] = true
				if _, _, err := cache.GetOrCompute(k, func() (float64, error) { return s.eval(ws, r.Pt) }); err != nil {
					return countedPass{}, err
				}
			}
		}
		return runCounted(len(reqs), func(i int) error {
			root := rec.Start("bench.request", 0, i)
			sp := rec.Start("servecache.get", root, i)
			t0 := time.Now()
			v, status, err := cache.GetOrCompute(reqs[i].Pt.key(), func() (float64, error) {
				return tracedEval(rec, pr, s, ws, i, sp, reqs[i].Pt)
			})
			d := time.Since(t0)
			rec.End(sp)
			rec.End(root)
			if status == servecache.StatusHit && rec != nil {
				hitDurs = append(hitDurs, d)
			}
			vals[i] = v
			return err
		})
	}
	key := func(i int) string { return reqs[i].Pt.key() }
	_, vals, err := tracedPasses(rep, o, len(reqs), key, newProber(false), replay)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		if !within(v, want[key(i)]) {
			rep.mismatch("replay %d %s: %.17g, expected %.17g", i, key(i), v, want[key(i)])
		}
	}
	var getUS float64
	for _, d := range hitDurs {
		getUS += float64(d) / float64(time.Microsecond)
	}
	if len(hitDurs) > 0 {
		getUS /= float64(len(hitDurs))
	}
	rep.setLayer("servecache.get_us", getUS)
	hitSendUS := pct(closed.hitSend, 0.50) * 1000
	rep.setLayer("serve.outside_us", hitSendUS-getUS)
	rep.note("closed-loop client hit time from send p50 %.1f us; in-process servecache hit %.2f us", hitSendUS, getUS)
	return rep, nil
}
