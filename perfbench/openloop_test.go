package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	phases := []phase{{Rate: 400, Dur: 2 * time.Second}, {Rate: 900, Dur: time.Second}}
	a, b := buildSchedule(7, phases), buildSchedule(7, phases)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].Due != b[i].Due || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Pt.key() != b[i].Pt.key() {
			t.Fatalf("same seed differs at request %d: %v %s vs %v %s", i, a[i].Due, a[i].Body, b[i].Due, b[i].Body)
		}
	}
	c := buildSchedule(8, phases)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i].Due == c[i].Due && bytes.Equal(a[i].Body, c[i].Body)
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	reqs := buildSchedule(3, []phase{{Rate: 1000, Dur: 10 * time.Second}, {Rate: 2000, Dur: time.Second}})
	n := map[string]int{}
	cold := map[string]bool{}
	phase1 := 0
	for i, r := range reqs {
		n[r.Class]++
		if r.Class == "cold" {
			if cold[r.Pt.key()] {
				t.Errorf("cold point repeated: %s", r.Body)
			}
			cold[r.Pt.key()] = true
		}
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatalf("due times not ordered at %d", i)
		}
		if r.Phase == 1 {
			phase1++
			if r.Due < 10*time.Second {
				t.Fatalf("phase 1 request due at %v", r.Due)
			}
		}
		if got := servePoint(mustBody(t, r.Body)).key(); got != r.Pt.key() {
			t.Fatalf("body %s resolves to %s, schedule says %s", r.Body, got, r.Pt.key())
		}
	}
	total := float64(len(reqs))
	if total < 11000 || total > 13000 {
		t.Errorf("%v requests, want about 12000", total)
	}
	if phase1 < 1800 || phase1 > 2200 {
		t.Errorf("%d phase-1 requests, want about 2000", phase1)
	}
	if f := float64(n["cold"]) / total; f < 0.02 || f > 0.04 {
		t.Errorf("cold share %.3f, want about 0.03", f)
	}
	if f := float64(n["hot"]) / total; f < 0.77 || f > 0.83 {
		t.Errorf("hot share %.3f, want about 0.80", f)
	}
}

// TestOpenLoopChargesStallToLaterRequests drives a fake handler that
// stalls once for 200 ms on one connection. Requests due during the stall
// cannot be sent until it ends: their latency, counted from the due
// time, and their send lateness must both include the wait.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 10 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cache":"hit","reliability":0.5}`))
	}))
	defer srv.Close()

	reqs := make([]schedReq, 60)
	for i := range reqs {
		reqs[i] = schedReq{Due: time.Duration(i) * 5 * time.Millisecond, Body: []byte(`{}`)}
	}
	outs := runOpenLoop(context.Background(), srv.URL, reqs, 1)

	stallEnd := outs[9].End
	var late []float64
	delayed := 0
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.Err)
		}
		late = append(late, ms(o.Send-reqs[i].Due))
		lat := o.End - reqs[i].Due
		if i > 9 && reqs[i].Due < stallEnd {
			delayed++
			if wait := stallEnd - reqs[i].Due; lat < wait {
				t.Errorf("request %d due during the stall: latency %v < wait %v", i, lat, wait)
			}
			if o.Send < stallEnd {
				t.Errorf("request %d sent at %v, before the stall ended at %v", i, o.Send, stallEnd)
			}
		}
	}
	if delayed < 30 {
		t.Fatalf("only %d requests were due during the stall", delayed)
	}
	if p99 := pct(late, 0.99); p99 < ms(stall)*0.9 {
		t.Errorf("lateness p99 %.1f ms does not show the %v stall", p99, stall)
	}
	if p50 := pct(late, 0.50); p50 <= 0 {
		t.Errorf("lateness p50 %.3f ms, want the queued requests to push it up", p50)
	}
}

// TestOpenLoopLatenessSmallWhenIdle checks the sender keeps to the
// schedule when nothing is slow: lateness well under a millisecond.
func TestOpenLoopLatenessSmallWhenIdle(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"cache":"hit","reliability":0.5}`))
	}))
	defer srv.Close()
	reqs := buildSchedule(1, []phase{{Rate: 200, Dur: time.Second}})
	outs := runOpenLoop(context.Background(), srv.URL, reqs, 2)
	var late []float64
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.Err)
		}
		late = append(late, ms(o.Send-reqs[i].Due))
	}
	if p50 := pct(late, 0.5); p50 > 0.2 {
		t.Errorf("lateness p50 %.3f ms on an idle server, want < 0.2 ms", p50)
	}
}

func TestScheduleClosedPhase(t *testing.T) {
	reqs := buildSchedule(4, []phase{{Rate: 100, Dur: time.Second}, {Rate: 500, Dur: 2 * time.Second, Closed: true}})
	closed := 0
	classes := map[string]int{}
	for _, r := range reqs {
		if r.Phase == 1 {
			closed++
			if r.Due != time.Second {
				t.Fatalf("closed-loop request due at %v, want the phase start", r.Due)
			}
			classes[r.Class]++
		}
	}
	if closed != 1000 {
		t.Errorf("%d closed-loop requests, want rate×duration = 1000", closed)
	}
	if classes["hot"] != 800 || classes["grid"] != 170 || classes["cold"] != 30 {
		t.Errorf("closed-loop mix %v, want exactly 800 hot, 170 grid, 30 cold", classes)
	}
}
