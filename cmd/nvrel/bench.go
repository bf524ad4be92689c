package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"nvrel"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
)

// benchCase is one named end-to-end benchmark.
type benchCase struct {
	name string
	run  func() error
}

// BenchResult is one (experiment, worker count) timing. Workers is the
// count actually used, after clamping to the machine's cores.
type BenchResult struct {
	Experiment  string  `json:"experiment"`
	Workers     int     `json:"workers"`
	Reps        int     `json:"reps"`
	MinSeconds  float64 `json:"min_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	// SpeedupVs1 is min_seconds at one worker divided by min_seconds at
	// this worker count (1.0 for the one-worker row).
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	// AllocBytes is the smallest heap-allocation delta observed across the
	// reps (TotalAlloc before/after one run), so `bench -compare` can gate
	// allocation regressions alongside wall-time ones. Reports written
	// before the field existed decode as zero, which -compare treats as
	// "no baseline, skip the alloc check".
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// BenchReport is the JSON document `nvrel bench` writes. Manifest pins the
// toolchain/machine the numbers came from and carries the wall clock per
// experiment in its phase map; Metrics embeds the solver counters (GS
// sweeps, restamps, plan memo hits, worker utilization, ...) accumulated
// across the whole bench run, so a timing regression can be separated from
// an algorithmic one (more sweeps vs slower sweeps) from the artifact
// alone.
type BenchReport struct {
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Timestamp string        `json:"timestamp"`
	Results   []BenchResult `json:"results"`
	Manifest  obs.Manifest  `json:"manifest"`
	Metrics   obs.Snapshot  `json:"metrics"`
}

// cmdBench times the sweep experiments end-to-end at 1, 2, and NumCPU
// workers and writes the timings as JSON. Each experiment gets one untimed
// warm-up run first so the reachability-graph cache is warm for every
// timed configuration alike; timings then reflect solve work, not
// exploration.
func cmdBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(out)
	reps := fs.Int("reps", 3, "timed repetitions per experiment and worker count")
	output := fs.String("o", "", "output path for the JSON report (default BENCH_sweeps.json, or BENCH_scale.json with -scale; empty for stdout only)")
	scale := fs.Bool("scale", false, "sweep model size N and compare the dense and sparse solver paths")
	warmstart := fs.Bool("warmstart", false, "run the warm-start probe sweeps (cold vs seeded) and gate the iteration reduction")
	warmRatio := fs.Float64("warm-ratio", 0.6, "with -warmstart: max allowed warm/cold total-iteration ratio")
	agree := fs.Float64("agree", 1e-12, "with -warmstart: max allowed elementwise |pi_warm - pi_cold|")
	budget := fs.Float64("budget", 60, "with -scale: skip the dense solver once a solve exceeds (or is projected to exceed) this many seconds")
	only := fs.String("only", "", "comma-separated subset of experiments to bench (default: all)")
	compare := fs.Bool("compare", false, "compare two bench reports (old.json new.json) and fail on regression")
	timeRatio := fs.Float64("time-ratio", 1.25, "with -compare: max allowed new/old min-seconds ratio")
	allocRatio := fs.Float64("alloc-ratio", 1.10, "with -compare: max allowed new/old alloc-bytes ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("bench -compare: want exactly two report paths (old.json new.json), got %d", fs.NArg())
		}
		return cmdBenchCompare(fs.Arg(0), fs.Arg(1), *timeRatio, *allocRatio, out)
	}
	if *reps < 1 {
		return fmt.Errorf("bench: reps = %d must be at least 1", *reps)
	}
	outputSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outputSet = true
		}
	})
	if *warmstart {
		if !outputSet {
			*output = "BENCH_warmstart.json"
		}
		return cmdBenchWarmstart(*output, *only, *warmRatio, *agree, out)
	}
	if *scale {
		if !outputSet {
			*output = "BENCH_scale.json"
		}
		return cmdBenchScale(*output, *budget, *only, out)
	}
	if !outputSet {
		*output = "BENCH_sweeps.json"
	}

	// gs-sparse is a synthetic probe: the paper-scale sweep experiments all
	// stay below linalg.SparseThreshold states and never exercise the
	// Gauss-Seidel path. A no-rejuvenation model widened to N=24 (325
	// states) routes through the sparse solver, so the embedded metrics
	// snapshot carries nonzero GS sweep counters and the timing rows get a
	// sparse-path reference point. The cache makes re-runs restamp instead
	// of re-explore, and the warm registry makes them re-converge from the
	// previous iterate instead of from uniform — the same repeat-solve
	// pattern the serve daemon and the optimizer generate.
	gsCache := nvp.NewModelCache()
	gsReg := nvp.NewWarmRegistry()
	gsWS := linalg.NewWorkspace()
	gsProbe := func() error {
		p := nvp.DefaultFourVersion()
		p.N = 24
		m, err := gsCache.BuildNoRejuvenation(p)
		if err != nil {
			return err
		}
		_, _, err = gsReg.Solve(nil, gsWS, m)
		return err
	}

	benchmarks := []benchCase{
		{"headline", func() error { _, err := nvrel.Headline(); return err }},
		{"fig3", func() error { _, err := nvrel.Fig3(nil); return err }},
		{"fig4a", func() error { _, err := nvrel.Fig4a(nil); return err }},
		{"fig4b", func() error { _, err := nvrel.Fig4b(nil); return err }},
		{"fig4c", func() error { _, err := nvrel.Fig4c(nil); return err }},
		{"fig4d", func() error { _, err := nvrel.Fig4d(nil); return err }},
		{"gs-sparse", gsProbe},
	}
	benchmarks, err := filterOnly(*only, benchmarks, func(b benchCase) string { return b.name })
	if err != nil {
		return err
	}

	// The embedded metrics snapshot covers exactly this bench run.
	prevObs := obs.Enable()
	defer obs.SetEnabled(prevObs)
	obs.Reset()
	benchStart := time.Now()
	phases := make(map[string]float64, len(benchmarks))

	// The sweep requests 1, 2, and NumCPU workers, but what a request
	// delivers is clamped to the core count (parallel.EffectiveWorkers), so
	// rows are keyed and deduped by the count actually used: on a 1-CPU
	// machine the whole sweep collapses to a single workers=1 row instead
	// of three indistinguishable timings labeled differently.
	workerSet := make(map[int]bool)
	var workerCounts []int
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		if cpus := runtime.NumCPU(); w > cpus {
			w = cpus
		}
		if !workerSet[w] {
			workerSet[w] = true
			workerCounts = append(workerCounts, w)
		}
	}
	sort.Ints(workerCounts)

	prev := nvrel.SetWorkers(0)
	defer nvrel.SetWorkers(prev)

	report := BenchReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Fprintf(out, "bench: %d experiments x workers %v x %d reps on %d CPU(s)\n",
		len(benchmarks), workerCounts, *reps, runtime.NumCPU())
	fmt.Fprintf(out, "  %-10s %-8s %-12s %-12s %s\n", "experiment", "workers", "min (s)", "mean (s)", "speedup")

	for _, b := range benchmarks {
		expStart := time.Now()
		if err := b.run(); err != nil { // warm-up: graph cache + workspace pools
			return fmt.Errorf("bench: %s warm-up: %w", b.name, err)
		}
		var base float64
		for _, w := range workerCounts {
			nvrel.SetWorkers(w)
			var min, sum float64
			var minAlloc uint64
			var ms0, ms1 runtime.MemStats
			for rep := 0; rep < *reps; rep++ {
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				if err := b.run(); err != nil {
					return fmt.Errorf("bench: %s at %d workers: %w", b.name, w, err)
				}
				elapsed := time.Since(start).Seconds()
				runtime.ReadMemStats(&ms1)
				alloc := ms1.TotalAlloc - ms0.TotalAlloc
				sum += elapsed
				if rep == 0 || elapsed < min {
					min = elapsed
				}
				if rep == 0 || alloc < minAlloc {
					minAlloc = alloc
				}
			}
			if w == workerCounts[0] {
				base = min
			}
			r := BenchResult{
				Experiment:  b.name,
				Workers:     w,
				Reps:        *reps,
				MinSeconds:  min,
				MeanSeconds: sum / float64(*reps),
				SpeedupVs1:  base / min,
				AllocBytes:  minAlloc,
			}
			report.Results = append(report.Results, r)
			fmt.Fprintf(out, "  %-10s %-8d %-12.6f %-12.6f %.2fx\n",
				r.Experiment, r.Workers, r.MinSeconds, r.MeanSeconds, r.SpeedupVs1)
		}
		phases[b.name] = time.Since(expStart).Seconds()
	}

	report.Manifest = runManifest(append([]string{"bench"}, args...), time.Since(benchStart).Seconds())
	report.Manifest.Phases = phases
	report.Metrics = obs.Capture()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *output == "" {
		_, err := out.Write(data)
		return err
	}
	if err := os.WriteFile(*output, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	fmt.Fprintf(out, "wrote %s\n", *output)
	return nil
}
