package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nvrel/internal/nvp"
)

// phase is one stretch of the open-loop schedule at a fixed offered rate.
type phase struct {
	Rate float64       // requests per second
	Dur  time.Duration // length of the stretch
	// Closed makes the stretch closed-loop: Rate×Dur requests, all due at
	// its start and sent over one connection, each as soon as the previous
	// one is answered.
	Closed bool
}

// schedReq is one scheduled request: when it is due (from the schedule
// start), its /solve body, and the point it asks for.
type schedReq struct {
	Due   time.Duration
	Phase int
	Class string // "hot", "grid" or "cold"
	Body  []byte
	Pt    point
}

// Key-population sizes and the request mix of serve-mix.
const (
	hotKeys     = 32
	gridParents = 16
	hotShare    = 0.80
	gridShare   = 0.17 // the rest, 3%, are unique cold points
	zipfS       = 1.1
)

// solveBody is the /solve request body. Fields are top-level, as the
// daemon expects; encoding/json writes floats in their shortest
// round-trip form, so the daemon parses back the exact parameters.
type solveBody struct {
	Arch     string   `json:"arch"`
	Alpha    float64  `json:"alpha"`
	MTTC     float64  `json:"mttc"`
	Interval *float64 `json:"interval,omitempty"`
}

// servePoint resolves a body the way the daemon does: Table II
// six-version defaults, with N=4 and R=0 for the four-version design.
func servePoint(b solveBody) point {
	p := nvp.DefaultSixVersion()
	if b.Arch == "4v" {
		p.N, p.R = 4, 0
	}
	p.Alpha = b.Alpha
	p.MeanTimeToCompromise = b.MTTC
	if b.Interval != nil {
		p.RejuvenationInterval = *b.Interval
	}
	return point{Arch: b.Arch, P: p}
}

// buildSchedule draws the seeded serve-mix schedule: Poisson arrivals at
// each open phase's rate, a fixed count for a closed one; each request asks for a Zipf-ranked hot key (80%),
// a neighbour-grid key (17%, within 2-4% of a hot key) or a unique cold
// point (3%). Six- and four-version points alternate in the hot set; two
// in three cold points are six-version.
func buildSchedule(seed int64, phases []phase) []schedReq {
	rng := rand.New(rand.NewSource(seed))
	round := func(v, step float64) float64 { return math.Round(v/step) * step }
	draw := func(arch string, exact bool) solveBody {
		b := solveBody{Arch: arch}
		b.MTTC = 1523 * math.Exp(rng.Float64()-0.5)
		b.Alpha = 0.3 + 0.4*rng.Float64()
		var iv float64
		if arch == "6v" {
			iv = 600 * math.Exp(0.8*rng.Float64()-0.4)
		}
		if !exact {
			b.MTTC, b.Alpha, iv = round(b.MTTC, 1), round(b.Alpha, 0.01), round(iv, 1)
		}
		if arch == "6v" {
			b.Interval = &iv
		}
		return b
	}
	hot := make([]solveBody, hotKeys)
	for i := range hot {
		arch := "6v"
		if i%2 == 1 {
			arch = "4v"
		}
		hot[i] = draw(arch, false)
	}
	var grid []solveBody
	for i := 0; i < gridParents; i++ {
		for _, f := range []float64{-0.04, -0.02, 0.02, 0.04} {
			b := hot[i]
			b.MTTC = round(b.MTTC*(1+f), 0.1)
			grid = append(grid, b)
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, hotKeys-1)

	var out []schedReq
	var t0 time.Duration
	colds := 0
	for pi, ph := range phases {
		end := t0 + ph.Dur
		t := float64(t0)
		var strata []int
		if ph.Closed {
			strata = rng.Perm(int(ph.Rate * ph.Dur.Seconds()))
		}
		for n := 0; ; n++ {
			due := t0
			if ph.Closed {
				if n >= len(strata) {
					break
				}
			} else {
				t += rng.ExpFloat64() / ph.Rate * float64(time.Second)
				if time.Duration(t) >= end {
					break
				}
				due = time.Duration(t)
			}
			var b solveBody
			class := "hot"
			u := rng.Float64()
			if ph.Closed {
				// Stratified, so the stretch holds exactly the mix's shares
				// and its work does not vary with the seed.
				u = (float64(strata[n]) + u) / float64(len(strata))
			}
			switch {
			case u < hotShare:
				b = hot[zipf.Uint64()]
			case u < hotShare+gridShare:
				class = "grid"
				b = grid[rng.Intn(len(grid))]
			default:
				class = "cold"
				arch := "6v"
				if colds%3 == 2 {
					arch = "4v"
				}
				colds++
				b = draw(arch, true)
			}
			body, err := json.Marshal(b)
			if err != nil {
				panic(err) // a fixed struct of finite floats always encodes
			}
			out = append(out, schedReq{Due: due, Phase: pi, Class: class, Body: body, Pt: servePoint(b)})
		}
		t0 = end
	}
	return out
}

// outcome is what one scheduled request got: when it was sent and
// answered (from the schedule start), the HTTP status, and the parsed
// reply.
type outcome struct {
	Send, End   time.Duration
	Status      int
	Cache       string
	Reliability float64
	Err         error
}

// ok reports a 200 with a parsed answer.
func (o outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

// spinWindow is how long before a due time the sender stops sleeping and
// spins. The sleep is a nanosleep system call, which wakes within the
// kernel's timer slack (50 us by default); time.Sleep is not used because
// an idle Go runtime waits for timers in whole milliseconds, more than a
// cache hit takes.
const spinWindow = 150 * time.Microsecond

// waitUntil returns at t: it sleeps until spinWindow before t, then
// yields in a loop.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
			continue
		}
		runtime.Gosched()
	}
}

// runOpenLoop sends the schedule against url+"/solve" from conns
// connections. A free connection takes the next request in due order and
// sends it at its due time; when every connection is busy the request
// waits, and that wait shows in its send time and in its latency, which
// is always counted from the due time. It returns when every request has
// been answered or ctx ends.
func runOpenLoop(ctx context.Context, url string, reqs []schedReq, conns int) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for c := 0; c < conns; c++ {
		client := &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				waitUntil(epoch.Add(reqs[i].Due))
				out[i] = send(ctx, client, url, reqs[i].Body, epoch)
			}
		}()
	}
	wg.Wait()
	return out
}

// send posts one body and reads the whole reply before stopping the
// clock; the reply is parsed after.
func send(ctx context.Context, client *http.Client, url string, body []byte, epoch time.Time) outcome {
	o := outcome{Send: time.Since(epoch)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		o.Err, o.End = err, time.Since(epoch)
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		o.Err, o.End = err, time.Since(epoch)
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.End = time.Since(epoch)
	o.Status = resp.StatusCode
	if err != nil {
		o.Err = err
		return o
	}
	if o.Status != http.StatusOK {
		o.Err = fmt.Errorf("status %d: %s", o.Status, bytes.TrimSpace(data))
		return o
	}
	var r struct {
		Cache       string  `json:"cache"`
		Reliability float64 `json:"reliability"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		o.Err = fmt.Errorf("reply: %w", err)
		return o
	}
	o.Cache, o.Reliability = r.Cache, r.Reliability
	return o
}
