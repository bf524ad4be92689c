package faultinject

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"
)

// Fault is one entry of a chaos plan: which site fires, at which hook
// hits, and with what payload.
type Fault struct {
	// Site names the injection point (see the fi* var blocks of the
	// instrumented packages, or Sites() at runtime).
	Site string `json:"site"`
	// Mode is one of "fire" (default; also spelled "panic"/"stall" for
	// readability at those hooks), "nan", "inf", "negate", "scale".
	Mode string `json:"mode,omitempty"`
	// After is the 1-based hook-hit index of the first firing hit
	// (default 1: fire on the first hit).
	After int64 `json:"after,omitempty"`
	// Count is how many consecutive hits fire (default 1).
	Count int64 `json:"count,omitempty"`
	// Value is the ModeScale factor (default 1.75).
	Value float64 `json:"value,omitempty"`
	// DelayMS is the Stall duration in milliseconds (default 50).
	DelayMS int `json:"delay_ms,omitempty"`
	// Also names further sites armed with the same mode, window and
	// payload, for a failure path that only opens when several sites fire
	// together (a fallback rung that runs only after an earlier rung
	// failed).
	Also []string `json:"also,omitempty"`
}

// Sites returns every site the fault arms: Site, then Also.
func (f Fault) Sites() []string { return append([]string{f.Site}, f.Also...) }

// Plan is a seeded set of faults. Plans are applied one fault at a time
// by the chaos driver (Arm) so outcomes attribute cleanly, but nothing
// prevents arming several faults at once.
type Plan struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// ParsePlan decodes and validates a JSON chaos plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultinject: plan is not valid JSON: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks every fault names a site and a known mode.
func (p *Plan) Validate() error {
	if len(p.Faults) == 0 {
		return fmt.Errorf("faultinject: plan has no faults")
	}
	for i, f := range p.Faults {
		if f.Site == "" {
			return fmt.Errorf("faultinject: fault %d has no site", i)
		}
		if _, ok := modeNames[f.Mode]; !ok {
			return fmt.Errorf("faultinject: fault %d (%s): unknown mode %q", i, f.Site, f.Mode)
		}
		for _, name := range f.Also {
			if name == "" {
				return fmt.Errorf("faultinject: fault %d (%s): empty site in also", i, f.Site)
			}
		}
		if f.After < 0 || f.Count < 0 {
			return fmt.Errorf("faultinject: fault %d (%s): negative after/count", i, f.Site)
		}
	}
	return nil
}

// Arm configures and arms the fault's sites (Site and Also). Each site
// keeps its hit counters from zero, so call Reset between fault runs.
// Injection still requires the global Enable gate.
func Arm(f Fault, seed int64) error {
	if _, ok := modeNames[f.Mode]; !ok {
		return fmt.Errorf("faultinject: unknown mode %q for site %s", f.Mode, f.Site)
	}
	for _, name := range f.Sites() {
		arm(SiteFor(name), f, seed)
	}
	return nil
}

// arm configures and arms one site with f's mode, window and payload; the
// slot stream is seeded per site name.
func arm(s *Site, f Fault, seed int64) {
	s.armed.Store(false)
	s.mode = modeNames[f.Mode]
	s.after = f.After
	if s.after <= 0 {
		s.after = 1
	}
	s.count = f.Count
	if s.count <= 0 {
		s.count = 1
	}
	s.value = f.Value
	if s.value == 0 {
		s.value = 1.75
	}
	s.delay = time.Duration(f.DelayMS) * time.Millisecond
	h := fnv.New64a()
	h.Write([]byte(s.name))
	s.seed = uint64(seed) ^ h.Sum64()
	s.hits.Store(0)
	s.fired.Store(0)
	s.armed.Store(true)
}
