package petri

import "slices"

// TopologyKey identifies the explored topology this graph was built on:
// two graphs share a key exactly when one is a Restamp sibling of the
// other (same marking set, state indices, and edge pattern — only rates
// and delays may differ). The key is the shared topology pointer, opaque
// to callers; it is the natural registry key for warm-start seeding
// because a stationary vector is only a meaningful initial guess on the
// identical state enumeration. A graph built without exploration (nil
// topology) returns nil, which callers must treat as "never share".
func (g *Graph) TopologyKey() any {
	if g == nil || g.topo == nil {
		return nil
	}
	return g.topo
}

// RateSignature appends this graph's full parameter vector — every
// exponential edge rate in edge order, then every deterministic delay in
// state order — to dst and returns the extended slice. Restamp siblings
// have signatures of identical length and layout, so the L1 distance
// between two signatures measures how far apart two parameter points are;
// the warm-start registry uses it to pick the nearest already-solved
// neighbor.
func (g *Graph) RateSignature(dst []float64) []float64 {
	dst = slices.Grow(dst, len(g.Exp)+len(g.Det))
	for _, e := range g.Exp {
		dst = append(dst, e.Rate)
	}
	for _, sched := range g.Det {
		if sched == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, sched.Delay)
		}
	}
	return dst
}
