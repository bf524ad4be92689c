package linalg

import (
	"context"
	"fmt"
	"strings"

	"nvrel/internal/obs"
)

// Attempt records one failed rung of a fallback ladder: which solver ran,
// how many iterations it spent, and the typed error that sent the ladder
// to the next rung. Successful rungs are not recorded — the caller's
// diagnostics name the rung that produced the result — so a clean
// first-try solve allocates nothing here.
type Attempt struct {
	// Solver is the rung name: "gs", "gth", "power", "sparse", "dense".
	Solver string
	// Sweeps is the iteration count of the failed attempt (zero for the
	// direct rungs).
	Sweeps int
	// Err is the typed failure that forced the fallback.
	Err error
}

// Rung is one row of a fallback-ladder table. Rows are package-level
// values of the solver packages; S is the per-solve state a rung reads
// its inputs from and writes its result into.
type Rung[S any] struct {
	// Name identifies the rung in Attempts and in Ladder.Run's named mode.
	Name string
	// Span is the trace span opened around the attempt, e.g.
	// "petri.rung.gs".
	Span string
	// Site is the SolveError site of a recovered panic and of the result
	// guard, e.g. "petri.solve.gs".
	Site string
	// Iters is the span attribute the rung's iteration count is recorded
	// under ("sweeps", "iters"); empty records none.
	Iters string
	// Run performs the attempt, leaving its result in s, and returns its
	// iterative work.
	Run func(ctx context.Context, s S) (iters int, err error)
}

// Ladder is a static fallback chain: rungs tried in order until one
// produces a result that passes Check.
type Ladder[S any] struct {
	Rungs []Rung[S]
	// Check validates the result a rung left in s; site is the rung's Site.
	Check func(site string, s S) error
	// Structural reports model-class failures every later rung would hit
	// identically, so falling back cannot recover them. Nil means none.
	Structural func(error) bool
}

// Run drives one solve down the ladder. For each rung in order it opens
// the rung span, recovers a panic into a FailPanic SolveError at the
// rung's site, validates the result, and records an Attempt when the rung
// fails. It stops at the first success, at a FailDeadline failure (every
// later rung would burn time against an expired clock), or at a failure
// Structural flags. A non-empty rung runs exactly that row with no
// fallback.
//
// last is the index in Rungs of the rung that produced the result — or,
// on failure, of the last rung tried (-1 for an unknown rung name). A
// first-rung success returns nil attempts.
func (l *Ladder[S]) Run(ctx context.Context, s S, rung string) (last int, attempts []Attempt, err error) {
	first, end := 0, len(l.Rungs)
	if rung != "" {
		if first = l.index(rung); first < 0 {
			return -1, nil, fmt.Errorf("unknown solver rung %q (want %s)", rung, l.names())
		}
		end = first + 1
	}
	for i := first; i < end; i++ {
		r := &l.Rungs[i]
		iters, err := l.try(ctx, r, s)
		if err == nil {
			return i, attempts, nil
		}
		attempts = append(attempts, Attempt{Solver: r.Name, Sweeps: iters, Err: err})
		if i == end-1 || isKind(err, FailDeadline) || (l.Structural != nil && l.Structural(err)) {
			return i, attempts, err
		}
	}
	return end - 1, attempts, nil // unreachable: the loop returns on its last rung
}

// try runs one rung inside its span with panic recovery and the result
// guard.
func (l *Ladder[S]) try(ctx context.Context, r *Rung[S], s S) (iters int, err error) {
	ctx, sp := obs.StartSpan(ctx, r.Span)
	defer func() {
		if r.Iters != "" {
			sp.Int(r.Iters, int64(iters))
		}
		sp.Err(err)
		sp.End()
	}()
	defer func() {
		if p := recover(); p != nil {
			err = NewPanicError(r.Site, p)
		}
	}()
	if iters, err = r.Run(ctx, s); err == nil {
		err = l.Check(r.Site, s)
	}
	return iters, err
}

func (l *Ladder[S]) index(name string) int {
	for i := range l.Rungs {
		if l.Rungs[i].Name == name {
			return i
		}
	}
	return -1
}

func (l *Ladder[S]) names() string {
	names := make([]string, len(l.Rungs))
	for i := range l.Rungs {
		names[i] = l.Rungs[i].Name
	}
	return strings.Join(names, ", ")
}

// isKind reports whether err carries a SolveError of the given kind.
func isKind(err error, kind FailureKind) bool {
	se, ok := AsSolveError(err)
	return ok && se.Kind == kind
}
