package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"nvrel/internal/experiments"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
	"nvrel/internal/servecache"
)

// point is one model to solve: an architecture ("4v" without
// rejuvenation, "6v" with) and its full parameter vector.
type point struct {
	Arch string
	P    nvp.Params
}

// key renders every answer-affecting parameter exactly (hex floats), so
// two points share a key only when they are the same model.
func (pt point) key() string {
	p := pt.P
	return servecache.Key(pt.Arch, []float64{
		float64(p.N), float64(p.F), float64(p.R),
		p.Alpha, p.P, p.PPrime,
		p.MeanTimeToCompromise, p.MeanTimeToFailure, p.MeanTimeToRepair,
		p.MeanTimeToRejuvenate, p.RejuvenationInterval,
		float64(p.Semantics), float64(p.Clock),
	})
}

func (pt point) build(c *nvp.ModelCache) (*nvp.Model, error) {
	if pt.Arch == "4v" {
		return c.BuildNoRejuvenation(pt.P)
	}
	return c.BuildWithRejuvenation(pt.P)
}

// solver is the per-pass state of the nvp path every workload drives:
// model cache, warm-start registry and one workspace per worker.
type solver struct {
	cache *nvp.ModelCache
	warm  *nvp.WarmRegistry
	arena *linalg.Arena
}

func newSolver() *solver {
	return &solver{cache: nvp.NewModelCache(), warm: nvp.NewWarmRegistry(), arena: linalg.NewArena()}
}

// eval is the nvp call sequence of a sweep point or a serve miss: build
// (explore or restamp), warm-registry solve, paper reward.
func (s *solver) eval(ws *linalg.Workspace, pt point) (float64, error) {
	m, err := pt.build(s.cache)
	if err != nil {
		return 0, err
	}
	pi, _, err := s.warm.SolveDiagCtxWS(nil, m, ws)
	if err != nil {
		return 0, err
	}
	return m.ExpectedPaperReliabilityFrom(pi)
}

// referenceSolve answers pt on the rung the shadow layer would pick for
// it, a different path from the one the workloads take: sparse MRGP for
// dense-routed six-version points and vice versa, uniformized power for
// the dense GTH four-version points.
func referenceSolve(ws *linalg.Workspace, pt point) (float64, string, error) {
	m, err := pt.build(nil)
	if err != nil {
		return 0, "", err
	}
	_, diag, err := m.SolveDiagCtxWS(nil, ws)
	if err != nil {
		return 0, "", err
	}
	rung := m.ShadowRung(diag)
	if rung == "" {
		return 0, "", fmt.Errorf("%s: no independent rung", pt.key())
	}
	pi, _, err := m.SolveRungCtxWS(nil, ws, rung)
	if err != nil {
		return 0, "", fmt.Errorf("%s on %s: %w", pt.key(), rung, err)
	}
	er, err := m.ExpectedPaperReliabilityFrom(pi)
	return er, rung, err
}

// referenceAll solves every point on its reference rung with the given
// number of workers.
func referenceAll(pts []point, workers int) ([]float64, []string, error) {
	vals := make([]float64, len(pts))
	rungs := make([]string, len(pts))
	arena := linalg.NewArena()
	err := parallel.ForEachN(workers, len(pts), func(i int) error {
		ws := arena.Get()
		defer arena.Put(ws)
		v, rung, err := referenceSolve(ws, pts[i])
		vals[i], rungs[i] = v, rung
		return err
	})
	return vals, rungs, err
}

// paperSweeps names the six public-API calls of one paper-sweep pass.
var paperSweeps = []string{"headline", "fig3", "fig4a", "fig4b", "fig4c", "fig4d"}

// paperPoints lists the E[R] values one sweep call returns, in the order
// the call returns them (headline: 4v then 6v; figures: per grid value,
// 4v then 6v where the figure has both).
func paperPoints(sweep string) []point {
	four, six := nvp.DefaultFourVersion(), nvp.DefaultSixVersion()
	both := func(grid []float64, set func(*nvp.Params, float64)) []point {
		var pts []point
		for _, v := range grid {
			p4, p6 := four, six
			set(&p4, v)
			set(&p6, v)
			pts = append(pts, point{"4v", p4}, point{"6v", p6})
		}
		return pts
	}
	switch sweep {
	case "headline":
		return []point{{"4v", four}, {"6v", six}}
	case "fig3":
		var pts []point
		for _, v := range experiments.Fig3Grid() {
			p := six
			p.RejuvenationInterval = v
			pts = append(pts, point{"6v", p})
		}
		return pts
	case "fig4a":
		return both(experiments.Fig4aGrid(), func(p *nvp.Params, v float64) { p.MeanTimeToCompromise = v })
	case "fig4b":
		return both(experiments.Fig4bGrid(), func(p *nvp.Params, v float64) { p.Alpha = v })
	case "fig4c":
		return both(experiments.Fig4cGrid(), func(p *nvp.Params, v float64) { p.P = v })
	case "fig4d":
		return both(experiments.Fig4dGrid(), func(p *nvp.Params, v float64) { p.PPrime = v })
	}
	return nil
}

// allPaperPoints is every point of one pass in the canonical sweep order.
func allPaperPoints() []point {
	var pts []point
	for _, s := range paperSweeps {
		pts = append(pts, paperPoints(s)...)
	}
	return pts
}

// sparsePointsPerPass is the length of the seeded sparse-n12 point list.
const sparsePointsPerPass = 12

// sparsePoints draws the seeded sparse-n12 list: six-version N=12 points
// at Table II parameters except the mean time to compromise. Two of every
// three are cold draws in [1000, 2500] s; every third is a neighbour,
// within 0.5-8%, of a point at least two places earlier, which at two
// workers has usually been solved by then, so warm starts have real work.
// Both draws are stratified: each block of strataPerList cold points
// takes one value from each of strataPerList equal log-width bins, and
// the neighbour offsets cycle through equal bins of [0.5%, 8%], in seeded
// orders. Seeds then differ in which points they ask for, not in how much
// work a pass is. All points are distinct.
func sparsePoints(seed int64, n int) []point {
	rng := rand.New(rand.NewSource(seed))
	const strataPerList = 8
	var coldBins, nearBins []int
	seen := map[string]bool{}
	pts := make([]point, 0, n)
	for len(pts) < n {
		p := nvp.DefaultSixVersion()
		p.N = 12
		if len(pts)%3 == 2 {
			if len(nearBins) == 0 {
				nearBins = rng.Perm(strataPerList / 2)
			}
			bin := float64(nearBins[0])
			nearBins = nearBins[1:]
			f := 0.005 + 0.075*(bin+rng.Float64())/(strataPerList/2)
			if rng.Intn(2) == 0 {
				f = -f
			}
			base := pts[rng.Intn(len(pts)-1)].P.MeanTimeToCompromise
			p.MeanTimeToCompromise = base * (1 + f)
		} else {
			if len(coldBins) == 0 {
				coldBins = rng.Perm(strataPerList)
			}
			bin := float64(coldBins[0])
			coldBins = coldBins[1:]
			p.MeanTimeToCompromise = 1000 * math.Exp(math.Log(2.5)*(bin+rng.Float64())/strataPerList)
		}
		pt := point{"6v", p}
		if k := pt.key(); !seen[k] {
			seen[k] = true
			pts = append(pts, pt)
		}
	}
	return pts
}

// refTable is a committed reference: E[R] per point key, solved on the
// reference rung.
type refTable struct {
	Workload  string             `json:"workload"`
	Seeds     []int64            `json:"seeds,omitempty"`
	Tolerance float64            `json:"tolerance"`
	Rungs     map[string]int     `json:"rungs"`
	Values    map[string]float64 `json:"values"`
}

func refPath(o options) string { return filepath.Join(o.refDir, o.workload+".ref.json") }

func loadReference(o options) (*refTable, error) {
	data, err := os.ReadFile(refPath(o))
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	var t refTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("reference table %s: %w", refPath(o), err)
	}
	return &t, nil
}

// refSeeds are the sparse-n12 seeds whose point lists the committed
// table covers, refPointsPerSeed points each (the list of a seed is a
// prefix of its longer lists); other seeds re-solve a seeded sample.
var refSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

const refPointsPerSeed = 16

// writeReference solves the workload's reference points on the reference
// rung and writes the table.
func writeReference(o options, path string) error {
	var pts []point
	t := refTable{Workload: o.workload, Tolerance: Tolerance, Rungs: map[string]int{}, Values: map[string]float64{}}
	switch o.workload {
	case "paper-sweep":
		pts = allPaperPoints()
	case "sparse-n12":
		t.Seeds = refSeeds
		for _, s := range refSeeds {
			pts = append(pts, sparsePoints(s, refPointsPerSeed)...)
		}
	default:
		return fmt.Errorf("%s has no reference table: its answers are checked against in-process solves", o.workload)
	}
	vals, rungs, err := referenceAll(pts, o.workers)
	if err != nil {
		return err
	}
	for i, pt := range pts {
		t.Values[pt.key()] = vals[i]
		t.Rungs[rungs[i]]++
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// within reports whether got agrees with want inside the tolerance.
func within(got, want float64) bool {
	return math.Abs(got-want) <= Tolerance && !math.IsNaN(got)
}
