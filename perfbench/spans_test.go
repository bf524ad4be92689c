package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sp(id, parent uint64, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,100) > a [10,40) > b [15,25); root > c [50,70).
	spans := []Span{
		sp(1, 0, "bench.point", 0, 100),
		sp(2, 1, "nvp.solve", 10, 40),
		sp(3, 2, "mrgp.dense", 15, 25),
		sp(4, 1, "nvp.reward", 50, 70),
	}
	self := SelfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 10, 4: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := LayerSelf(spans)
	if layers["bench"] != 50 || layers["nvp"] != 40 || layers["mrgp"] != 10 {
		t.Errorf("layer self times = %v", layers)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the root's 100", sum)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children [10,30), [20,50) and [45,60) overlap: their union is
	// [10,60), 50 long. A child sticking out of the parent is clipped.
	spans := []Span{
		sp(1, 0, "servecache.get", 0, 100),
		sp(2, 1, "nvp.build", 10, 30),
		sp(3, 1, "nvp.solve", 20, 50),
		sp(4, 1, "nvp.reward", 45, 60),
		sp(5, 0, "bench.request", 200, 300),
		sp(6, 5, "nvp.solve", 250, 400),
	}
	self := SelfTimes(spans)
	if self[1] != 50 {
		t.Errorf("overlapping children: self = %d, want 50", self[1])
	}
	if self[5] != 50 {
		t.Errorf("child past the parent's end: self = %d, want 50", self[5])
	}
}

func TestSelfTimeDisjointAndIdenticalChildren(t *testing.T) {
	spans := []Span{
		sp(1, 0, "bench.point", 0, 10),
		sp(2, 1, "petri.explore", 2, 4),
		sp(3, 1, "petri.restamp", 2, 4),
		sp(4, 1, "petri.solve", 6, 9),
	}
	if got := SelfTimes(spans)[1]; got != 5 {
		t.Errorf("self = %d, want 5", got)
	}
}

func TestRecorderWritesTraceEvents(t *testing.T) {
	r := NewRecorder()
	root := r.Start("bench.point", 0, 3)
	child := r.Start("nvp.solve", root, 3)
	r.End(child)
	r.End(root)
	var nilRec *Recorder
	if id := nilRec.Start("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.End(0)

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.WriteSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Args["point"] != float64(3) {
			t.Errorf("%s: point = %v, want 3", e.Name, e.Args["point"])
		}
		if e.Name == "nvp.solve" && e.Args["parent_id"] != float64(root) {
			t.Errorf("nvp.solve parent = %v, want %d", e.Args["parent_id"], root)
		}
	}
}
