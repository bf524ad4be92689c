package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvrel"
	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// newTestServer builds a daemon with telemetry forced on (restored at
// test end) and returns it with an httptest front end.
func newTestServer(t *testing.T) (*server, *httptest.Server) {
	return newTestServerCfg(t, serveConfig{maxConcurrent: 2, solveTimeout: 30 * time.Second})
}

func newTestServerCfg(t *testing.T, cfg serveConfig) (*server, *httptest.Server) {
	t.Helper()
	prevObs := obs.Enable()
	prevTrace := obs.TraceEnable()
	obs.TraceReset()
	prevEvents := obs.EventsEnable()
	obs.EventsReset()
	shadow.FlightReset() // newServer re-enables a fresh ring
	t.Cleanup(func() {
		obs.SetEnabled(prevObs)
		obs.SetTraceEnabled(prevTrace)
		obs.SetEventsEnabled(prevEvents)
		shadow.FlightReset()
	})
	s := newServer(cfg)
	t.Cleanup(s.shadow.Close)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestServeHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before warm-up = %d, want 503", resp.StatusCode)
	}

	s.warmUp(io.Discard)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after warm-up = %d, want 200", resp.StatusCode)
	}
}

// TestServeSolveMatchesBatchCLI is the acceptance criterion: a /solve
// round-trip must match the batch solver bit-for-bit. The response float
// survives its JSON round trip exactly (encoding/json emits the shortest
// representation that parses back to the same float64).
func TestServeSolveMatchesBatchCLI(t *testing.T) {
	_, ts := newTestServer(t)
	for _, arch := range []string{"4v", "6v"} {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"arch":%q}`, arch)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/solve %s = %d: %s", arch, resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("/solve %s response: %v", arch, err)
		}

		var model *nvrel.Model
		if arch == "4v" {
			model, err = nvrel.BuildFourVersion(nvrel.DefaultFourVersion())
		} else {
			model, err = nvrel.BuildSixVersion(nvrel.DefaultSixVersion())
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.ExpectedPaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reliability != want {
			t.Errorf("/solve %s reliability = %.17g, batch CLI computes %.17g", arch, sr.Reliability, want)
		}
		if sr.States != model.Graph.NumStates() {
			t.Errorf("/solve %s states = %d, want %d", arch, sr.States, model.Graph.NumStates())
		}
		if sr.Diag == nil {
			t.Errorf("/solve %s missing diag", arch)
		}
	}
}

func TestServeSolveDefaultsMirrorSolveCommand(t *testing.T) {
	req := solveRequest{Arch: "4v"}
	p, arch, err := req.params()
	if err != nil {
		t.Fatal(err)
	}
	if arch != "4v" || p.N != 4 || p.R != 0 {
		t.Errorf("4v defaults = N=%d R=%d, want N=4 R=0", p.N, p.R)
	}
	n := 8
	req = solveRequest{Arch: "4v", N: &n}
	if p, _, _ = req.params(); p.N != 8 || p.R != 0 {
		t.Errorf("4v with n=8 = N=%d R=%d, want N=8 R=0", p.N, p.R)
	}
	req = solveRequest{}
	if p, arch, _ = req.params(); arch != "6v" || p.N != 6 || p.R != 1 {
		t.Errorf("empty request = %s N=%d R=%d, want 6v N=6 R=1", arch, p.N, p.R)
	}
	req = solveRequest{Arch: "9v"}
	if _, _, err = req.params(); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestServeSolveTraceNesting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Trace) == 0 {
		t.Fatal("solve response carries no trace")
	}
	depth := map[string]int{}
	parent := map[string]string{}
	for _, row := range sr.Trace {
		depth[row.Name] = row.Depth
		parent[row.Name] = row.Parent
	}
	if depth["serve.solve"] != 0 {
		t.Errorf("serve.solve depth = %d, want 0 (rows: %+v)", depth["serve.solve"], sr.Trace)
	}
	if parent["parallel.item"] != "serve.solve" {
		t.Errorf("parallel.item parent = %q, want serve.solve", parent["parallel.item"])
	}
	if parent["nvp.solve"] != "parallel.item" {
		t.Errorf("nvp.solve parent = %q, want parallel.item", parent["nvp.solve"])
	}
	if _, ok := parent["mrgp.solve"]; !ok {
		t.Errorf("trace missing mrgp.solve rows: %+v", sr.Trace)
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	// A request before scraping so serve.request is nonzero.
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", got)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE serve_request counter") {
		t.Errorf("/metrics missing serve_request family:\n%.400s", text)
	}
	var serveReq int64
	for _, line := range strings.Split(text, "\n") {
		if n, _ := fmt.Sscanf(line, "serve_request %d", &serveReq); n == 1 {
			break
		}
	}
	if serveReq < 1 {
		t.Errorf("serve_request = %d, want >= 1", serveReq)
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if doc.Manifest.Command != "serve" || doc.Manifest.GoVersion == "" {
		t.Errorf("/metrics.json manifest = %+v", doc.Manifest)
	}
	if _, ok := doc.Metrics.Counters["serve.request"]; !ok {
		t.Error("/metrics.json missing serve.request counter")
	}
}

func TestServeTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/traces is not trace-event JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "serve.solve" {
			found = true
		}
	}
	if !found {
		t.Errorf("/traces missing serve.solve span among %d events", len(doc.TraceEvents))
	}
}

func TestServeSolveRejectsWhenBusy(t *testing.T) {
	s, ts := newTestServer(t)
	// Fill the admission semaphore so the next request sees a full house.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/solve while busy = %d, want 429", resp.StatusCode)
	}
}

func TestServeSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"arch":"42v"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"arch":"4v","n":-3}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("/solve %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
		if e.Error == "" {
			t.Errorf("/solve %q returned no error message", c.body)
		}
	}
}

func TestServeUsageListsCommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	if !strings.Contains(buf.String(), "serve") {
		t.Error("usage does not mention serve")
	}
}

func TestServeSolveReturnsTraceID(t *testing.T) {
	_, ts := newTestServer(t)
	solve := func() (*http.Response, solveResponse) {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`))
		if err != nil {
			t.Fatal(err)
		}
		var sr solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, sr
	}
	resp, miss := solve()
	if miss.TraceID == "" {
		t.Fatal("miss response has no trace_id")
	}
	if got := resp.Header.Get(traceHeader); got != miss.TraceID {
		t.Errorf("%s header = %q, envelope trace_id = %q", traceHeader, got, miss.TraceID)
	}
	// The cache hit never enters the solver, but still gets its own
	// request trace ID (satellite: trace_id for hits and coalesced
	// waiters too, not just flight leaders).
	resp2, hit := solve()
	if hit.Cache != "hit" {
		t.Fatalf("second solve cache = %q, want hit", hit.Cache)
	}
	if hit.TraceID == "" || hit.TraceID == miss.TraceID {
		t.Errorf("hit trace_id = %q (miss was %q); want fresh nonempty ID", hit.TraceID, miss.TraceID)
	}
	if got := resp2.Header.Get(traceHeader); got != hit.TraceID {
		t.Errorf("hit %s header = %q, want %q", traceHeader, got, hit.TraceID)
	}
}

func TestServeSolveJoinsUpstreamTrace(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve", strings.NewReader(`{"arch":"6v"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traceHeader, "00000000000000aa-00000000000000bb")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.TraceID != "00000000000000aa" {
		t.Errorf("trace_id = %q, want the upstream trace 00000000000000aa", sr.TraceID)
	}
	// The joined spans must be collectible under the upstream trace ID.
	recs := obs.CollectTrace(0xaa)
	found := false
	for _, r := range recs {
		if r.Name == "serve.solve" {
			found = true
		}
	}
	if !found {
		t.Errorf("upstream trace holds %d spans, none named serve.solve", len(recs))
	}
}

func TestServeBatchReturnsTraceID(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json",
		strings.NewReader(`{"requests":[{"arch":"6v"},{"arch":"4v"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.TraceID == "" {
		t.Fatal("batch envelope has no trace_id")
	}
	if got := resp.Header.Get(traceHeader); got != br.TraceID {
		t.Errorf("%s header = %q, envelope = %q", traceHeader, got, br.TraceID)
	}
}

func TestServeEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	obs.EventsReset()
	// 4v routes through the ctmc solver, whose diag carries a solve path.
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"4v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp, err := http.Post(ts.URL+"/solve/batch", "application/json",
		strings.NewReader(`{"requests":[{"arch":"6v"}]}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []obs.Event `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/events: %v", err)
	}
	if len(doc.Events) != 2 {
		t.Fatalf("/events has %d events, want 2", len(doc.Events))
	}
	solveEv, batchEv := doc.Events[0], doc.Events[1]
	if solveEv.Method != "solve" || batchEv.Method != "batch" {
		t.Fatalf("event methods = %q,%q", solveEv.Method, batchEv.Method)
	}
	if solveEv.Cache != "miss" || solveEv.Key == "" || solveEv.TraceID == "" {
		t.Errorf("solve event = %+v, want cache=miss with key hash and trace", solveEv)
	}
	if solveEv.Status != http.StatusOK || solveEv.LatencySeconds <= 0 {
		t.Errorf("solve event status/latency = %d/%v", solveEv.Status, solveEv.LatencySeconds)
	}
	if solveEv.Path == "" {
		t.Errorf("solve event missing SolveDiag path: %+v", solveEv)
	}
	if batchEv.Items != 1 || batchEv.TraceID == "" {
		t.Errorf("batch event = %+v", batchEv)
	}
}

func TestServeSLOEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.SLOReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/slo: %v", err)
	}
	if rep.Requests < 1 {
		t.Errorf("/slo requests = %d, want >= 1 after a solve", rep.Requests)
	}
	if !rep.Healthy || rep.Errors != 0 {
		t.Errorf("/slo report = %+v, want healthy with zero errors", rep)
	}
	if rep.AvailabilityObjective != 0.999 || rep.LatencyObjectiveSeconds != 1 {
		t.Errorf("/slo default objectives = %v/%v", rep.AvailabilityObjective, rep.LatencyObjectiveSeconds)
	}
}

func TestServeClusterMetricsUnsharded(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"arch":"6v"}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/cluster/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc clusterDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/cluster/metrics.json: %v", err)
	}
	if len(doc.Peers) != 1 || doc.Peers[0] != localPeerName {
		t.Errorf("unsharded cluster peers = %v, want [%s]", doc.Peers, localPeerName)
	}
	if doc.Merged.Counters["serve.request"] < 1 {
		t.Errorf("merged serve.request = %d, want >= 1", doc.Merged.Counters["serve.request"])
	}
	if doc.PerPeer[localPeerName].Counters["serve.request"] != doc.Merged.Counters["serve.request"] {
		t.Error("single-peer merge does not equal the peer's own counters")
	}

	presp, err := http.Get(ts.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if !strings.Contains(string(body), "serve_request") {
		t.Errorf("/cluster/metrics missing serve_request:\n%.300s", body)
	}
}

func TestServeReadyzDrainingWins(t *testing.T) {
	s, ts := newTestServer(t)
	s.warmUp(io.Discard)
	s.beginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz drain body = %q, want \"draining\"", body)
	}
}

// TestServeClientTimeoutCapped: a client's timeout_seconds may shorten the
// solve deadline but never extend it past the server's -solve-timeout, so
// a sparse 6v N=12 solve (~0.8 s) asked to run for 60 s on a 50 ms server
// is cut off with a 504 well inside a second.
func TestServeClientTimeoutCapped(t *testing.T) {
	_, ts := newTestServerCfg(t, serveConfig{maxConcurrent: 2, solveTimeout: 50 * time.Millisecond})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"arch":"6v","n":12,"timeout_seconds":60}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/solve = %d after %v: %s, want 504", resp.StatusCode, elapsed, body)
	}
	if elapsed > time.Second {
		t.Fatalf("/solve took %v, want < 1s under a 50ms server deadline", elapsed)
	}
}
