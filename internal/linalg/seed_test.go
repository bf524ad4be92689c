package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestApplySeedValidation(t *testing.T) {
	dst := []float64{9, 9, 9}
	orig := append([]float64(nil), dst...)
	bad := [][]float64{
		nil,
		{1, 2},       // length mismatch
		{1, 2, 3, 4}, // length mismatch
		{1, math.NaN(), 1},
		{1, math.Inf(1), 1},
		{1, -0.5, 1},
		{0, 0, 0},                             // zero mass
		{math.MaxFloat64, math.MaxFloat64, 1}, // mass overflows to +Inf
	}
	for i, seed := range bad {
		if ApplySeed(dst, seed) {
			t.Fatalf("case %d: ApplySeed accepted %v", i, seed)
		}
		for j := range dst {
			if dst[j] != orig[j] {
				t.Fatalf("case %d: rejected seed wrote dst[%d] = %g", i, j, dst[j])
			}
		}
	}
	if !ApplySeed(dst, []float64{1, 1, 2}) {
		t.Fatal("ApplySeed rejected a valid seed")
	}
	want := []float64{0.25, 0.25, 0.5}
	for j := range dst {
		if math.Abs(dst[j]-want[j]) > 1e-15 {
			t.Fatalf("dst[%d] = %g, want %g", j, dst[j], want[j])
		}
	}
}

// transposeDense mirrors the stamp layout the GS kernel consumes: incoming
// edges per state.
func transposeDense(q *Dense, n int) *Dense {
	qt := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qt.Set(j, i, q.At(i, j))
		}
	}
	return qt
}

// perturbedCopy returns pi nudged multiplicatively by up to rel per entry
// and renormalized — the shape of a neighbor point's stationary vector.
func perturbedCopy(rng *rand.Rand, pi []float64, rel float64) []float64 {
	out := make([]float64, len(pi))
	var sum float64
	for i, v := range pi {
		out[i] = v * (1 + rel*(2*rng.Float64()-1))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// TestSteadyStateGSSeededAgreesWithCold: the warm-start property at the
// kernel level — on random generators, GS started from a perturbed copy of
// a neighbor's solution lands within 1e-12 of the cold solve for nudges
// spanning five orders of magnitude, and a fine nudge (the refinement/
// serving regime the registry targets) never costs more sweeps than the
// cold start. Coarse nudges carry no iteration guarantee — a far seed can
// sit marginally worse than uniform — only the agreement one.
func TestSteadyStateGSSeededAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	rels := []float64{0.5, 1e-2, 1e-4, 1e-6}
	for rep := 0; rep < 20; rep++ {
		n := 2 + rng.Intn(60)
		qt := CSRFromDense(transposeDense(randomGenerator(rng, n), n))
		cold := make([]float64, n)
		coldSweeps, warm, _, err := ws.SteadyStateGS(nil, qt, cold, nil)
		if err != nil {
			t.Fatalf("rep %d: cold GS: %v", rep, err)
		}
		if warm {
			t.Fatalf("rep %d: nil seed reported warm", rep)
		}
		for _, rel := range rels {
			seed := perturbedCopy(rng, cold, rel)
			got := make([]float64, n)
			sweeps, warm, _, err := ws.SteadyStateGS(nil, qt, got, seed)
			if err != nil {
				t.Fatalf("rep %d rel=%g: seeded GS: %v", rep, rel, err)
			}
			if !warm {
				t.Fatalf("rep %d rel=%g: valid seed not reported warm", rep, rel)
			}
			if rel <= 1e-4 && sweeps > coldSweeps {
				t.Fatalf("rep %d rel=%g: warm GS took %d sweeps, cold took %d", rep, rel, sweeps, coldSweeps)
			}
			for i := range cold {
				if d := math.Abs(got[i] - cold[i]); d > 1e-12 {
					t.Fatalf("rep %d rel=%g: pi[%d] warm-cold diff %g", rep, rel, i, d)
				}
			}
		}
	}
}

// mixedGenerator is randomGenerator plus a unit-rate uniform re-dispatch
// from every state. The extra mixing keeps the uniformized chain's
// contraction factor well under 1, so the power kernel's successive-
// iterate stopping rule (1e-14) leaves true error far below the 1e-12
// agreement bound this fuzz asserts. (On slowly mixing chains that rule
// can stop ~1e-11 from the fixed point — a property of the kernel, not of
// warm-starting — which is why the production gate measures the GS and
// embedded-chain paths.)
func mixedGenerator(rng *rand.Rand, n int) *Dense {
	q := randomGenerator(rng, n)
	if n > 1 {
		r := 1.0 / float64(n-1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					q.Add(i, j, r)
					q.Add(i, i, -r)
				}
			}
		}
	}
	return q
}

// TestSteadyStatePowerSeededAgreesWithCold: the same property on the
// uniformized power backstop.
func TestSteadyStatePowerSeededAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := NewWorkspace()
	for rep := 0; rep < 12; rep++ {
		n := 2 + rng.Intn(40)
		q := CSRFromDense(mixedGenerator(rng, n))
		cold := make([]float64, n)
		coldIters, warm, err := ws.SteadyStatePower(nil, q, cold, nil)
		if err != nil {
			t.Fatalf("rep %d: cold power: %v", rep, err)
		}
		if warm {
			t.Fatalf("rep %d: nil seed reported warm", rep)
		}
		for _, rel := range []float64{1e-2, 1e-5} {
			seed := perturbedCopy(rng, cold, rel)
			got := make([]float64, n)
			iters, warm, err := ws.SteadyStatePower(nil, q, got, seed)
			if err != nil {
				t.Fatalf("rep %d rel=%g: seeded power: %v", rep, rel, err)
			}
			if !warm {
				t.Fatalf("rep %d rel=%g: valid seed not reported warm", rep, rel)
			}
			if rel <= 1e-4 && iters > coldIters {
				t.Fatalf("rep %d rel=%g: warm power took %d iters, cold took %d", rep, rel, iters, coldIters)
			}
			for i := range cold {
				if d := math.Abs(got[i] - cold[i]); d > 1e-12 {
					t.Fatalf("rep %d rel=%g: pi[%d] warm-cold diff %g", rep, rel, i, d)
				}
			}
		}
	}
}

// TestSeededKernelsRejectCorruptSeeds: a poisoned seed degrades to the
// uniform cold start bit-for-bit — same iterate, same iteration count.
func TestSeededKernelsRejectCorruptSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 30
	qt := CSRFromDense(transposeDense(randomGenerator(rng, n), n))
	ws := NewWorkspace()
	cold := make([]float64, n)
	coldSweeps, _, _, err := ws.SteadyStateGS(nil, qt, cold, nil)
	if err != nil {
		t.Fatalf("cold GS: %v", err)
	}
	corrupt := make([]float64, n)
	for i := range corrupt {
		corrupt[i] = 1
	}
	corrupt[7] = math.NaN()
	got := make([]float64, n)
	sweeps, warm, _, err := ws.SteadyStateGS(nil, qt, got, corrupt)
	if err != nil {
		t.Fatalf("seeded GS with corrupt seed: %v", err)
	}
	if warm {
		t.Fatal("corrupt seed reported warm")
	}
	if sweeps != coldSweeps {
		t.Fatalf("corrupt seed changed the iteration count: %d vs cold %d", sweeps, coldSweeps)
	}
	for i := range cold {
		if got[i] != cold[i] {
			t.Fatalf("corrupt seed changed pi[%d]: %g vs %g", i, got[i], cold[i])
		}
	}
}

func TestArenaReusesWorkspaces(t *testing.T) {
	a := NewArena()
	ws1 := a.Get()
	ws2 := a.Get()
	if ws1 == ws2 {
		t.Fatal("arena handed out the same workspace twice")
	}
	a.Put(ws1)
	if got := a.Get(); got != ws1 {
		t.Fatal("arena did not reuse the released workspace")
	}
	var nilArena *Arena
	if nilArena.Get() == nil {
		t.Fatal("nil arena returned nil workspace")
	}
	nilArena.Put(ws2) // must not panic
}
