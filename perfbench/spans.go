package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"nvrel/internal/obs"
)

// Span is one timed call the benchmark made into a layer: its name (the
// layer is the part before the first dot), start and end relative to the
// recorder's epoch, the span that caused it, and the point or request it
// served.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for a root span
	Point  int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Layer is the span name up to its first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory until the run ends. It is meant for the
// single-worker traced pass and is not safe for concurrent use. A nil
// Recorder records nothing, so untraced passes share the same code.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Start(name string, parent uint64, point int) uint64 {
	if r == nil {
		return 0
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Point: point, Name: name, Start: time.Since(r.epoch)})
	return id
}

// End closes the span id.
func (r *Recorder) End(id uint64) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch)
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to its own interval. Overlapping
// children are counted once.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the child intervals inside
// parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// LayerSelf sums self time per layer.
func LayerSelf(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// spanStats is the count and total duration of the spans with one name.
type spanStats struct {
	n     int
	total time.Duration
}

func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.total) / float64(s.n)
}

func (s spanStats) meanUS() float64 { return s.meanMS() * 1000 }

// ByName groups span durations by name.
func ByName(spans []Span) map[string]spanStats {
	out := make(map[string]spanStats)
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.Dur()
		out[s.Name] = st
	}
	return out
}

// WriteSpans writes the spans as Chrome trace-event JSON (one track per
// point) through obs.EncodeTraceEvents.
func (r *Recorder) WriteSpans(path string) error {
	recs := make([]obs.SpanRecord, 0, len(r.Spans()))
	for _, s := range r.Spans() {
		recs = append(recs, obs.SpanRecord{
			ID:     s.ID,
			Parent: s.Parent,
			Trace:  uint64(s.Point) + 1,
			Name:   s.Name,
			Start:  r.epoch.Add(s.Start),
			Dur:    s.Dur(),
			Attrs:  []obs.Attr{{Key: "point", Kind: obs.AttrInt, Int: int64(s.Point)}},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.EncodeTraceEvents(bw, recs); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
