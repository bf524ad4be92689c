package faultinject

import (
	"context"
	"math"
	"testing"
	"time"
)

// withInjection arms one fault and enables injection for the test body.
func withInjection(t *testing.T, f Fault, seed int64) *Site {
	t.Helper()
	Reset()
	if err := Arm(f, seed); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	prev := Enable()
	t.Cleanup(func() {
		enabled.Store(prev)
		Reset()
	})
	return SiteFor(f.Site)
}

// TestDisabledSiteNeverFires: without the global gate, armed sites stay
// inert and count nothing.
func TestDisabledSiteNeverFires(t *testing.T) {
	Reset()
	if err := Arm(Fault{Site: "test.disabled"}, 1); err != nil {
		t.Fatal(err)
	}
	Disable()
	s := SiteFor("test.disabled")
	for i := 0; i < 10; i++ {
		if s.Fire() {
			t.Fatal("disabled site fired")
		}
	}
	if s.Hits() != 0 || s.Fired() != 0 {
		t.Fatalf("disabled site counted hits=%d fired=%d", s.Hits(), s.Fired())
	}
}

// TestFireWindow: a fault fires exactly on hits [After, After+Count).
func TestFireWindow(t *testing.T) {
	s := withInjection(t, Fault{Site: "test.window", After: 3, Count: 2}, 1)
	var fired []int
	for i := 1; i <= 8; i++ {
		if s.Fire() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [3 4]", fired)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", s.Fired())
	}
}

// TestArmAlso: a fault arms its Also sites with the same window, and each
// site counts its own firings.
func TestArmAlso(t *testing.T) {
	first := withInjection(t, Fault{Site: "test.also.first", Also: []string{"test.also.second"}, After: 2}, 1)
	second := SiteFor("test.also.second")
	for _, s := range []*Site{first, second} {
		if s.Fire() || !s.Fire() || s.Fire() {
			t.Errorf("%s did not fire on hit 2 alone", s.name)
		}
		if s.Fired() != 1 {
			t.Errorf("%s Fired() = %d, want 1", s.name, s.Fired())
		}
	}
}

// TestCorruptModesAreDeterministic: each value mode rewrites exactly one
// slot, and the same seed picks the same slot across runs.
func TestCorruptModesAreDeterministic(t *testing.T) {
	cases := []struct {
		mode  string
		check func(orig, got float64) bool
	}{
		{"nan", func(_, got float64) bool { return math.IsNaN(got) }},
		{"inf", func(_, got float64) bool { return math.IsInf(got, 1) }},
		{"negate", func(orig, got float64) bool { return got == -orig }},
		{"scale", func(orig, got float64) bool { return got == orig*1.75 }},
	}
	for _, tc := range cases {
		slot := -1
		for run := 0; run < 3; run++ {
			s := withInjection(t, Fault{Site: "test.corrupt." + tc.mode, Mode: tc.mode}, 42)
			vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			if !s.Corrupt(vals) {
				t.Fatalf("%s: first Corrupt did not fire", tc.mode)
			}
			changed := -1
			for i, v := range vals {
				if v != float64(i+1) {
					if changed >= 0 {
						t.Fatalf("%s: more than one slot changed", tc.mode)
					}
					changed = i
				}
			}
			if changed < 0 {
				t.Fatalf("%s: no slot changed", tc.mode)
			}
			if !tc.check(float64(changed+1), vals[changed]) {
				t.Fatalf("%s: slot %d rewritten to %v", tc.mode, changed, vals[changed])
			}
			if slot >= 0 && changed != slot {
				t.Fatalf("%s: slot %d on rerun, %d first (not deterministic)", tc.mode, changed, slot)
			}
			slot = changed
		}
	}
}

// TestPanicPayload: injected panics carry the recognizable payload.
func TestPanicPayload(t *testing.T) {
	s := withInjection(t, Fault{Site: "test.panic"}, 1)
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok {
			t.Fatalf("recovered %T (%v), want *Injected", r, r)
		}
		if inj.Site != "test.panic" {
			t.Fatalf("payload site = %q", inj.Site)
		}
	}()
	s.Panic()
	t.Fatal("Panic did not panic")
}

// TestStallHonorsContext: a stall wakes up early when the context dies.
func TestStallHonorsContext(t *testing.T) {
	s := withInjection(t, Fault{Site: "test.stall", DelayMS: 5000}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Stall(ctx)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stall ignored context: slept %v", d)
	}
}

// TestPlanParseAndValidate: JSON plans round-trip and bad plans are
// rejected.
func TestPlanParseAndValidate(t *testing.T) {
	p, err := ParsePlan([]byte(`{"seed": 7, "faults": [{"site": "a.b", "mode": "nan", "after": 2}]}`))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 || len(p.Faults) != 1 || p.Faults[0].After != 2 {
		t.Fatalf("plan = %+v", p)
	}
	for _, bad := range []string{
		`{"seed": 1}`,
		`{"faults": [{"site": ""}]}`,
		`{"faults": [{"site": "x", "mode": "melt"}]}`,
		`{"faults": [{"site": "x", "also": [""]}]}`,
		`not json`,
	} {
		if _, err := ParsePlan([]byte(bad)); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestResetDisarms: after Reset, armed sites stop firing and counters are
// zeroed.
func TestResetDisarms(t *testing.T) {
	s := withInjection(t, Fault{Site: "test.reset"}, 1)
	if !s.Fire() {
		t.Fatal("armed site did not fire")
	}
	Reset()
	if s.Fire() {
		t.Fatal("reset site fired")
	}
	if s.Hits() != 0 || s.Fired() != 0 {
		t.Fatalf("reset left hits=%d fired=%d", s.Hits(), s.Fired())
	}
}
