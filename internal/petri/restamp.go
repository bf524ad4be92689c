package petri

import (
	"errors"
	"fmt"
)

// ErrStructureMismatch is returned by Restamp when the target net does not
// have the same places and transitions as the net the graph was explored
// from.
var ErrStructureMismatch = errors.New("petri: net structure differs from explored graph")

// Restamp re-targets a reachability graph at a structurally identical net
// whose timed-transition rates (and deterministic delays) may differ, and
// returns a new graph without re-exploring the state space. The markings,
// state indices, initial distribution, and branching probabilities are
// shared with the receiver; only the exponential edge rates and the
// deterministic delays are recomputed from the new net.
//
// Restamp is only sound when, between the two nets, (1) the reachable
// marking set and the enabled-transition sets are unchanged — guards, arc
// weights, initial markings, and the zero-pattern of rate functions must
// not depend on the parameters that changed — and (2) immediate-transition
// weights are unchanged, so every vanishing-cascade branching probability
// is preserved. The nvp model builders satisfy both for pure rate/delay
// changes (sweeping means or the clock period) because their immediate
// weights depend only on the marking and their exponential rates are
// strictly positive whenever enabled. Restamp checks structural shape
// (place and transition counts and names, kinds) but cannot verify the
// semantic conditions; callers own them.
//
// For any marking m the new rate is net.rateOf(via, m) * prob with prob
// carried over verbatim, which is float-for-float the product Explore
// would have computed — restamped sweeps are bit-identical to freshly
// explored ones.
func (g *Graph) Restamp(net *Net) (*Graph, error) {
	old := g.Net
	if len(net.places) != len(old.places) || len(net.transitions) != len(old.transitions) {
		return nil, fmt.Errorf("%w: %d/%d places, %d/%d transitions",
			ErrStructureMismatch, len(net.places), len(old.places), len(net.transitions), len(old.transitions))
	}
	for i := range net.places {
		if net.places[i].name != old.places[i].name || net.places[i].initial != old.places[i].initial {
			return nil, fmt.Errorf("%w: place %d is %q(%d), explored with %q(%d)", ErrStructureMismatch,
				i, net.places[i].name, net.places[i].initial, old.places[i].name, old.places[i].initial)
		}
	}
	for i := range net.transitions {
		nt, ot := &net.transitions[i], &old.transitions[i]
		if nt.Name != ot.Name || nt.Kind != ot.Kind || nt.Priority != ot.Priority {
			return nil, fmt.Errorf("%w: transition %d is %q/%v, explored with %q/%v", ErrStructureMismatch,
				i, nt.Name, nt.Kind, ot.Name, ot.Kind)
		}
	}

	out := &Graph{
		Net:      net,
		Markings: g.Markings,
		Initial:  g.Initial,
		Exp:      make([]RateEdge, len(g.Exp)),
		Det:      make([]*DetSchedule, len(g.Det)),
		index:    g.index,
		topo:     g.topo,
	}
	for i, e := range g.Exp {
		e.Rate = net.rateOf(e.Via, g.Markings[e.From]) * e.Prob
		out.Exp[i] = e
	}
	// One backing slab for the schedules instead of one allocation each.
	scheds := make([]DetSchedule, len(g.Det))
	for i, sched := range g.Det {
		if sched == nil {
			continue
		}
		scheds[i] = DetSchedule{
			Transition: sched.Transition,
			Delay:      net.transitions[sched.Transition].Delay,
			Successors: sched.Successors,
		}
		out.Det[i] = &scheds[i]
	}
	metRestamps.Inc()
	return out, nil
}
