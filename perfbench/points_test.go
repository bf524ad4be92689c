package main

import (
	"encoding/json"
	"math"
	"testing"
)

func mustBody(t *testing.T, data []byte) solveBody {
	t.Helper()
	var b solveBody
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("body %s: %v", data, err)
	}
	return b
}

func TestSparsePointsDeterministicPerSeed(t *testing.T) {
	a, b := sparsePoints(5, 16), sparsePoints(5, 16)
	for i := range a {
		if a[i].key() != b[i].key() {
			t.Fatalf("same seed differs at point %d", i)
		}
	}
	c := sparsePoints(6, 16)
	same := true
	for i := range a {
		same = same && a[i].key() == c[i].key()
	}
	if same {
		t.Fatal("seeds 5 and 6 gave the same points")
	}
}

func TestSparsePointsShape(t *testing.T) {
	pts := sparsePoints(11, 30)
	seen := map[string]bool{}
	for i, pt := range pts {
		if seen[pt.key()] {
			t.Fatalf("point %d repeats", i)
		}
		seen[pt.key()] = true
		if pt.Arch != "6v" || pt.P.N != 12 {
			t.Fatalf("point %d is %s N=%d, want 6v N=12", i, pt.Arch, pt.P.N)
		}
		m := pt.P.MeanTimeToCompromise
		if i%3 != 2 {
			if m < 1000 || m > 2500 {
				t.Errorf("cold point %d: MTTC %g outside [1000, 2500]", i, m)
			}
			continue
		}
		near := false
		for _, q := range pts[:i] {
			d := math.Abs(m/q.P.MeanTimeToCompromise - 1)
			near = near || (d >= 0.005 && d <= 0.08)
		}
		if !near {
			t.Errorf("neighbour point %d (MTTC %g) is not within 0.5-8%% of an earlier point", i, m)
		}
	}
}

func TestPaperPointsCoverEverySweep(t *testing.T) {
	if n := len(allPaperPoints()); n != 127 {
		t.Fatalf("%d paper points, want 127", n)
	}
	for _, s := range paperSweeps {
		if len(paperPoints(s)) == 0 {
			t.Errorf("sweep %s has no points", s)
		}
	}
}

func TestCapacityStopsAtFirstMiss(t *testing.T) {
	pass := stretch{rate: 400, dur: 1, n: 400, good: 400, inLimit: 400, lat: []float64{1, 2}}
	fast := stretch{rate: 800, dur: 1, n: 790, good: 790, inLimit: 790, lat: []float64{1, 3}}
	slow := stretch{rate: 1200, dur: 1, n: 1200, good: 1200, inLimit: 1000, lat: []float64{1, 900}}
	after := stretch{rate: 1800, dur: 1, n: 1800, good: 1800, inLimit: 1800, lat: []float64{1}}
	if got := capacity([]stretch{pass, fast, slow, after}); got != 800 {
		t.Errorf("capacity = %v rps, want 800", got)
	}
	failed := fast
	failed.good--
	if got := capacity([]stretch{pass, failed}); got != 400 {
		t.Errorf("a stretch with a failed request met the limit: capacity %v", got)
	}
	closed := stretch{rate: 2500, closed: true, n: 10, good: 10, lat: []float64{1}}
	if got := capacity([]stretch{pass, fast, closed}); got != 800 {
		t.Errorf("capacity counted the closed-loop stretch: %v rps", got)
	}
}
