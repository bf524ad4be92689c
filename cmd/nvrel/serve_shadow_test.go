package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// TestServeContentTypeHeaders pins the exposition content types: the
// Prometheus text endpoint must advertise exposition-format 0.0.4 (some
// scrapers refuse to parse without it) and every structured endpoint
// must say application/json.
func TestServeContentTypeHeaders(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path string
		want string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/healthz", "application/json"},
		{"/events", "application/json"},
		{"/traces", "application/json"},
		{"/slo", "application/json"},
		{"/debug/flight", "application/json"},
		{"/cluster/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/cluster/metrics.json", "application/json"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != c.want {
			t.Errorf("%s Content-Type = %q, want %q", c.path, got, c.want)
		}
	}
}

func solveN24(t *testing.T, ts string) {
	t.Helper()
	resp, err := http.Post(ts+"/solve", "application/json",
		strings.NewReader(`{"arch":"4v","n":24}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve = %d: %s", resp.StatusCode, body)
	}
}

func getFlight(t *testing.T, ts string) flightDoc {
	t.Helper()
	resp, err := http.Get(ts + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc flightDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	return doc
}

func getHealth(t *testing.T, ts string) healthDoc {
	t.Helper()
	resp, err := http.Get(ts + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	return doc
}

// TestServeShadowAgreesOnCleanSolves drives a sparse-path solve through
// the daemon at shadow-rate 1 and expects the independent GTH re-solve
// to agree: numerics ok, the flight ring annotated with the verdict,
// and the record carrying the request's trace id.
func TestServeShadowAgreesOnCleanSolves(t *testing.T) {
	s, ts := newTestServerCfg(t, serveConfig{
		maxConcurrent: 2, solveTimeout: 30 * time.Second, shadowRate: 1,
	})
	solveN24(t, ts.URL)
	doc := getFlight(t, ts.URL) // flushes the verifier
	if doc.Shadow.Sampled < 1 || doc.Shadow.Agree < 1 || doc.Shadow.Diverge != 0 {
		t.Fatalf("shadow stats = %+v, want >=1 sampled+agree, 0 diverge", doc.Shadow)
	}
	if len(doc.Flight) == 0 {
		t.Fatal("flight ring empty after solve")
	}
	rec := doc.Flight[len(doc.Flight)-1]
	if rec.Source != "serve" || rec.Arch != "4v" || rec.Path != "sparse" {
		t.Fatalf("flight record = %+v", rec)
	}
	if rec.TraceID == "" {
		t.Fatal("flight record has no trace id")
	}
	if rec.Residual <= 0 || rec.Residual > 1e-12 {
		t.Fatalf("GS acceptance residual = %g, want (0, 1e-12]", rec.Residual)
	}
	if rec.Shadow == nil || rec.Shadow.Verdict != shadow.VerdictAgree || rec.Shadow.Rung != "gth" {
		t.Fatalf("flight shadow outcome = %+v", rec.Shadow)
	}
	h := getHealth(t, ts.URL)
	if h.Status != "ok" || h.Numerics.Status != "ok" || h.Numerics.Agree < 1 {
		t.Fatalf("healthz = %+v", h)
	}
	_ = s
}

// TestServeShadowDetectsDrift is the daemon-level acceptance test: a
// drifted (converged-but-wrong) GS solve served to a client must flip
// /healthz to diverging, raise shadow.diverge, and leave a structured
// divergence event behind.
func TestServeShadowDetectsDrift(t *testing.T) {
	divergeBase := obs.CounterFor("shadow.diverge").Value()
	s, ts := newTestServerCfg(t, serveConfig{
		maxConcurrent: 2, solveTimeout: 30 * time.Second, shadowRate: 1,
	})
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	if err := faultinject.Arm(faultinject.Fault{Site: "linalg.gs.drift", Count: 1}, 1); err != nil {
		t.Fatal(err)
	}
	solveN24(t, ts.URL)
	faultinject.Disable()

	doc := getFlight(t, ts.URL)
	if doc.Shadow.Diverge != 1 {
		t.Fatalf("shadow stats = %+v, want 1 diverge", doc.Shadow)
	}
	if got := obs.CounterFor("shadow.diverge").Value() - divergeBase; got != 1 {
		t.Fatalf("shadow.diverge counter delta = %d, want 1", got)
	}
	rec := doc.Flight[len(doc.Flight)-1]
	if rec.Shadow == nil || rec.Shadow.Verdict != shadow.VerdictDiverge {
		t.Fatalf("flight shadow outcome = %+v", rec.Shadow)
	}
	h := getHealth(t, ts.URL)
	if h.Status != "diverging" || h.Numerics.Status != "diverging" {
		t.Fatalf("healthz after drift = %+v", h)
	}
	var found bool
	for _, ev := range obs.EventsSnapshot() {
		if ev.Method == "shadow" && strings.Contains(ev.Error, "diverged") {
			found = true
			if ev.TraceID == "" {
				t.Error("divergence event missing trace id")
			}
		}
	}
	if !found {
		t.Fatal("no shadow divergence event recorded")
	}
	_ = s
}

// TestServeShadowOffByDefault: without -shadow-rate the daemon reports
// numerics off and samples nothing, but the flight recorder still runs.
func TestServeShadowOffByDefault(t *testing.T) {
	s, ts := newTestServer(t)
	if s.shadow != nil {
		t.Fatal("verifier built at rate 0")
	}
	solveN24(t, ts.URL)
	h := getHealth(t, ts.URL)
	if h.Numerics.Status != "off" || h.Numerics.Sampled != 0 {
		t.Fatalf("numerics = %+v, want off", h.Numerics)
	}
	if doc := getFlight(t, ts.URL); len(doc.Flight) == 0 {
		t.Fatal("flight recorder idle without shadowing")
	}
}

// TestServeMrgpFallbackReachesAudit: a six-version solve whose sparse
// rung stalls is rescued by the dense rung, and that fallback must be
// visible end to end — in the /solve diag, in the flight record, and in
// the fallback count `nvrel audit` replays from the flight dump. The
// flight path stays empty (MRGP solves bucket by solver in audit).
func TestServeMrgpFallbackReachesAudit(t *testing.T) {
	prev := linalg.SparseThreshold
	linalg.SparseThreshold = 1 // route the default 6v model through the sparse rung
	t.Cleanup(func() { linalg.SparseThreshold = prev })
	_, ts := newTestServer(t)
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "mrgp.power.stall"}, 1); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve = %d (%v): %s", resp.StatusCode, err, body)
	}
	faultinject.Disable()
	if sr.Solver != "mrgp" || sr.Diag == nil || sr.Diag.Fallback == "" || sr.Diag.Path != "" {
		t.Fatalf("solve diag = %+v, want an mrgp fallback with no CTMC path", sr.Diag)
	}
	if len(sr.Diag.Attempts) != 1 || sr.Diag.Attempts[0].Solver != "sparse" {
		t.Fatalf("attempts = %+v, want one failed sparse rung", sr.Diag.Attempts)
	}

	doc := getFlight(t, ts.URL)
	if len(doc.Flight) != 1 || doc.Flight[0].Fallback == "" || doc.Flight[0].Path != "" {
		t.Fatalf("flight = %+v, want one record with a fallback and no path", doc.Flight)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	flightFile, reportFile := filepath.Join(dir, "flight.json"), filepath.Join(dir, "audit.json")
	if err := os.WriteFile(flightFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = cmdAudit([]string{"-flight", flightFile, "-max-fallback-rate", "0", "-o", reportFile}, &out)
	if err == nil || !strings.Contains(err.Error(), "fallback rate") {
		t.Fatalf("audit -max-fallback-rate 0 = %v, want the fallback gate to trip\n%s", err, out.String())
	}
	raw, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep auditReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Flight == nil || rep.Flight.Fallbacks != 1 {
		t.Fatalf("audit flight = %+v, want 1 fallback", rep.Flight)
	}
}
