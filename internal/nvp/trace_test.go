package nvp

import (
	"testing"
	"time"

	"nvrel/internal/obs"
)

// collectSolveTrace solves m with tracing on and returns the spans of the
// solve's trace tree.
func collectSolveTrace(t *testing.T, m *Model) []obs.SpanRecord {
	t.Helper()
	prev := obs.TraceEnable()
	obs.TraceReset()
	defer obs.SetTraceEnabled(prev)
	if _, _, err := m.Solve(nil, nil, Opts{}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	all := obs.TraceSnapshot()
	if len(all) == 0 {
		t.Fatal("solve recorded no spans")
	}
	return obs.CollectTrace(all[0].Trace)
}

// byName indexes a span set, failing on duplicates so the assertions
// below stay unambiguous.
func byName(t *testing.T, recs []obs.SpanRecord) map[string]obs.SpanRecord {
	t.Helper()
	m := make(map[string]obs.SpanRecord, len(recs))
	for _, r := range recs {
		if _, dup := m[r.Name]; dup {
			t.Fatalf("trace has two %q spans: %+v", r.Name, recs)
		}
		m[r.Name] = r
	}
	return m
}

// childSum returns the summed duration of parent's direct children.
func childSum(recs []obs.SpanRecord, parent uint64) time.Duration {
	var sum time.Duration
	for _, r := range recs {
		if r.Parent == parent {
			sum += r.Dur
		}
	}
	return sum
}

// TestSolveTraceNestsCTMC asserts the acceptance-criterion span shape for
// the CTMC architecture: nvp.solve -> petri.solve -> petri.rung.gth ->
// linalg.gth, with each child's duration within its parent's and sibling
// durations summing to no more than the parent.
func TestSolveTraceNestsCTMC(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	recs := collectSolveTrace(t, m)
	spans := byName(t, recs)
	chain := []string{"nvp.solve", "petri.solve", "petri.rung.gth", "linalg.gth"}
	for i := 1; i < len(chain); i++ {
		child, ok := spans[chain[i]]
		if !ok {
			t.Fatalf("trace missing %q span; have %v", chain[i], names(recs))
		}
		parent := spans[chain[i-1]]
		if child.Parent != parent.ID {
			t.Errorf("%q parent = span %d, want %q (span %d)", chain[i], child.Parent, chain[i-1], parent.ID)
		}
		if child.Dur > parent.Dur {
			t.Errorf("%q duration %v exceeds parent %q %v", chain[i], child.Dur, chain[i-1], parent.Dur)
		}
	}
	for _, r := range recs {
		if sum := childSum(recs, r.ID); sum > r.Dur {
			t.Errorf("children of %q sum to %v, parent only %v", r.Name, sum, r.Dur)
		}
	}
	root := spans["nvp.solve"]
	attrs := map[string]any{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["solver"] != "ctmc" || attrs["arch"] != "no-rejuvenation" {
		t.Errorf("nvp.solve attrs = %v", attrs)
	}
	if attrs["states"] == nil || attrs["states"].(int64) < 1 {
		t.Errorf("nvp.solve missing states attr: %v", attrs)
	}
}

// TestSolveTraceNestsMRGP asserts the span shape for the rejuvenation
// architecture on the sparse path: nvp.solve -> mrgp.solve ->
// mrgp.rung.sparse -> {mrgp.kernel.embedded, mrgp.kernel.occupancy} as
// sibling kernels.
func TestSolveTraceNestsMRGP(t *testing.T) {
	p := DefaultSixVersion()
	p.N = 10 // 561 states: routes sparse
	m, err := BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := collectSolveTrace(t, m)
	spans := byName(t, recs)
	rung, ok := spans["mrgp.rung.sparse"]
	if !ok {
		t.Fatalf("trace missing mrgp.rung.sparse; have %v", names(recs))
	}
	if spans["mrgp.solve"].Parent != spans["nvp.solve"].ID {
		t.Error("mrgp.solve not a child of nvp.solve")
	}
	if rung.Parent != spans["mrgp.solve"].ID {
		t.Error("mrgp.rung.sparse not a child of mrgp.solve")
	}
	for _, kernel := range []string{"mrgp.kernel.embedded", "mrgp.kernel.occupancy"} {
		k, ok := spans[kernel]
		if !ok {
			t.Fatalf("trace missing %q; have %v", kernel, names(recs))
		}
		if k.Parent != rung.ID {
			t.Errorf("%q not a child of mrgp.rung.sparse", kernel)
		}
	}
	if sum := childSum(recs, rung.ID); sum > rung.Dur {
		t.Errorf("kernel spans sum to %v, rung only %v", sum, rung.Dur)
	}
}

func names(recs []obs.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}
