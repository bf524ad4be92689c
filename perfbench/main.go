// Command perfbench is nvrel's benchmark. It runs one of three seeded
// workloads and prints every metric with its unit; the last line of its
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	paper-sweep  headline + Fig. 3 + Fig. 4a-d through the public nvrel API
//	sparse-n12   seeded six-version N=12 points (247 states, sparse MRGP)
//	serve-mix    open- and closed-loop HTTP traffic against a fresh `nvrel serve`
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With -trace 1 it carries the per-layer metrics of a
// separate single-worker traced pass over the same seeded inputs; the
// spans are written to a trace-event file under -out.
//
// Run it through run.sh, which builds this program and the nvrel binary
// from the checkout it sits in:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"nvrel"
)

// Tolerance is the agreement band every answer must meet against its
// reference: the shadow-verification band (DESIGN §14).
const Tolerance = 1e-9

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	nvrelBin string
	outDir   string
	refDir   string
}

// workload is one named benchmark input set.
type workload struct {
	name string
	// run measures the end-to-end metrics (tracing off).
	run func(o options) (*report, error)
	// traced measures the per-layer metrics in a single-worker traced pass.
	traced func(o options) (*report, error)
	// setupPass runs one cold pass in a fresh process and returns its
	// seconds; nil when the workload measures set-up in-process.
	setupPass func(o options) (float64, error)
}

var workloads = []workload{
	{name: "paper-sweep", run: runPaperSweep, traced: tracePaperSweep, setupPass: paperSetupPass},
	{name: "sparse-n12", run: runSparse, traced: traceSparse, setupPass: sparseSetupPass},
	{name: "serve-mix", run: runServeMix, traced: traceServeMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var setupPass bool
	var genRef string
	fs.StringVar(&o.workload, "workload", "", "workload: paper-sweep, sparse-n12 or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced single-worker pass, per-layer metrics")
	fs.StringVar(&o.nvrelBin, "nvrel", ".bench_build/nvrel", "nvrel binary that serve-mix starts")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	fs.StringVar(&o.refDir, "ref", "perfbench/testdata", "directory holding the reference tables")
	fs.BoolVar(&setupPass, "setup-pass", false, "run one cold pass of -workload and print its seconds")
	fs.StringVar(&genRef, "gen-ref", "", "write the reference table of -workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	o.workers = runtime.NumCPU()
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	nvrel.SetWorkers(o.workers)

	switch {
	case genRef != "":
		if err := writeReference(o, genRef); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	case setupPass:
		if w.setupPass == nil {
			fmt.Fprintf(stderr, "perfbench: %s has no set-up pass\n", w.name)
			return 2
		}
		s, err := w.setupPass(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", s)
		return 0
	}

	fn, names := w.run, endToEndNames
	if o.trace {
		fn, names = w.traced, perLayerNames()
	}
	rep, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := rep.result(names)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, w.name, o)
	for _, m := range rep.mismatches {
		fmt.Fprintf(stderr, "perfbench: wrong answer: %s\n", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// endToEndNames is the metric set of an untraced run's JSON result and
// perLayerNames (trace.go) that of a traced run; both match
// BENCHMARK.json.
var endToEndNames = []string{"setup_s", "ops_per_s", "op.p50_ms", "peak_rss_mb"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics in the order they were measured, plus
// the operation counts and every wrong answer found.
type report struct {
	names      []string
	metrics    map[string]metric
	notes      []string
	attempted  int64
	failed     int64
	mismatches []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records one wrong answer; it counts as a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// result selects the named metrics for the JSON line. A name the
// workload did not measure is a bug in the benchmark.
func (r *report) result(names []string) (result, error) {
	res := result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		res.Metrics[n] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	return res, nil
}

// print writes the human-readable table: every metric measured, in
// order, with its unit.
func (r *report) print(w io.Writer, name string, o options) {
	mode := "end-to-end, untraced"
	if o.trace {
		mode = "per-layer, traced single-worker pass"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g workers=%d (%s)\n", name, o.seed, o.seconds, o.workers, mode)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted %d failed %d\n", r.attempted, r.failed)
}
