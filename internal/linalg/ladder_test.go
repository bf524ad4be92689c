package linalg

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"
)

// fakeState records which rungs ran; each fake rung's behavior is keyed
// by its name in fail.
type fakeState struct {
	ran  []string
	fail map[string]string // rung -> "err", "panic", "deadline", "structural", "invalid"
	ok   bool
}

var errStructural = errors.New("structural")

func fakeRun(name string) func(context.Context, *fakeState) (int, error) {
	return func(_ context.Context, s *fakeState) (int, error) {
		s.ran = append(s.ran, name)
		s.ok = true
		switch s.fail[name] {
		case "err":
			return 7, &SolveError{Site: name, Kind: FailNotConverged, Index: -1}
		case "panic":
			panic("boom")
		case "deadline":
			return 3, &SolveError{Site: name, Kind: FailDeadline, Index: -1}
		case "structural":
			return 0, errStructural
		case "invalid":
			s.ok = false
		}
		return 0, nil
	}
}

var fakeLadder = Ladder[*fakeState]{
	Rungs: []Rung[*fakeState]{
		{Name: "a", Span: "fake.rung.a", Site: "fake.a", Iters: "iters", Run: fakeRun("a")},
		{Name: "b", Span: "fake.rung.b", Site: "fake.b", Run: fakeRun("b")},
		{Name: "c", Span: "fake.rung.c", Site: "fake.c", Run: fakeRun("c")},
	},
	Check: func(site string, s *fakeState) error {
		if !s.ok {
			return &SolveError{Site: site, Kind: FailSimplex, Index: -1}
		}
		return nil
	},
	Structural: func(err error) bool { return errors.Is(err, errStructural) },
}

// TestLadderRun drives the runner with fake rungs through every stopping
// rule: first-rung success, in-order fallback, panic recovery at the
// failing rung's site, guard rejection, deadline and structural stops,
// exhaustion, and named-rung runs that never fall back.
func TestLadderRun(t *testing.T) {
	cases := []struct {
		name     string
		rung     string
		fail     map[string]string
		wantLast int
		wantRan  []string
		// wantAttempts lists "solver/kind/site/sweeps" per failed rung.
		wantAttempts []string
		wantErr      bool
	}{
		{name: "first rung wins", wantLast: 0, wantRan: []string{"a"}},
		{name: "fallback in order", fail: map[string]string{"a": "err", "b": "invalid"}, wantLast: 2,
			wantRan: []string{"a", "b", "c"}, wantAttempts: []string{"a/not-converged/a/7", "b/simplex/fake.b/0"}},
		{name: "panic at rung k", fail: map[string]string{"b": "panic", "a": "err"}, wantLast: 2,
			wantRan: []string{"a", "b", "c"}, wantAttempts: []string{"a/not-converged/a/7", "b/panic/fake.b/0"}},
		{name: "deadline stops", fail: map[string]string{"a": "deadline"}, wantLast: 0,
			wantRan: []string{"a"}, wantAttempts: []string{"a/deadline/a/3"}, wantErr: true},
		{name: "structural stops", fail: map[string]string{"a": "err", "b": "structural"}, wantLast: 1,
			wantRan: []string{"a", "b"}, wantAttempts: []string{"a/not-converged/a/7", "b/unknown//0"}, wantErr: true},
		{name: "exhausted", fail: map[string]string{"a": "err", "b": "err", "c": "panic"}, wantLast: 2,
			wantRan:      []string{"a", "b", "c"},
			wantAttempts: []string{"a/not-converged/a/7", "b/not-converged/b/7", "c/panic/fake.c/0"}, wantErr: true},
		{name: "named rung wins", rung: "b", wantLast: 1, wantRan: []string{"b"}},
		{name: "named rung never falls back", rung: "b", fail: map[string]string{"b": "err"}, wantLast: 1,
			wantRan: []string{"b"}, wantAttempts: []string{"b/not-converged/b/7"}, wantErr: true},
		{name: "unknown rung", rung: "z", wantLast: -1, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &fakeState{fail: c.fail}
			last, attempts, err := fakeLadder.Run(context.Background(), s, c.rung)
			if last != c.wantLast || (err != nil) != c.wantErr {
				t.Fatalf("last = %d err = %v, want %d (err %v)", last, err, c.wantLast, c.wantErr)
			}
			if !reflect.DeepEqual(s.ran, c.wantRan) {
				t.Fatalf("ran %v, want %v", s.ran, c.wantRan)
			}
			if c.wantAttempts == nil && attempts != nil {
				t.Fatalf("attempts = %+v, want nil", attempts)
			}
			var got []string
			for _, a := range attempts {
				kind, site := FailUnknown, ""
				if se, ok := AsSolveError(a.Err); ok {
					kind, site = se.Kind, se.Site
				}
				got = append(got, a.Solver+"/"+kind.String()+"/"+site+"/"+strconv.Itoa(a.Sweeps))
			}
			if !reflect.DeepEqual(got, c.wantAttempts) {
				t.Fatalf("attempts = %v, want %v", got, c.wantAttempts)
			}
			if c.wantErr && len(attempts) > 0 && err != attempts[len(attempts)-1].Err {
				t.Fatalf("returned error %v is not the last attempt's", err)
			}
		})
	}
}
