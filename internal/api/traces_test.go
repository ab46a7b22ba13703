package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// getTraces GETs /debug/traces (with optional query) off the server.
func getTraces(t *testing.T, srv http.Handler, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/debug/traces"+query, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces%s: status %d\n%s", query, rec.Code, rec.Body.String())
	}
	return rec
}

// TestTraceCapturesPipeline pins the acceptance criterion: a /v1/diff
// request produces a retained trace whose tree contains construct and
// compare spans carrying the deep FDD and walk stats (and no shape span:
// served diffs do not shape), and the response itself carries X-Trace-ID
// and a Server-Timing breakdown.
func TestTraceCapturesPipeline(t *testing.T) {
	t.Parallel()
	srv := NewServer()

	rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)})
	if rec.Code != http.StatusOK {
		t.Fatalf("diff: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("diff response missing X-Trace-ID")
	}
	st := rec.Header().Get("Server-Timing")
	if !strings.Contains(st, "construct;dur=") || !strings.Contains(st, "compare;dur=") ||
		!strings.Contains(st, "total;dur=") || strings.Contains(st, "shape;") {
		t.Fatalf("Server-Timing = %q, want construct, compare and total entries and no shape", st)
	}

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observed == 0 || len(snap.Recent) == 0 {
		t.Fatalf("trace buffer empty after a traced request: %+v", snap)
	}
	var found *trace.Record
	for i := range snap.Recent {
		if snap.Recent[i].TraceID == traceID {
			found = &snap.Recent[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained; have %d records", traceID, len(snap.Recent))
	}
	if found.Root.Name != "/v1/diff" {
		t.Fatalf("root span = %q, want /v1/diff", found.Root.Name)
	}
	if got := found.Root.Attrs["requestId"]; got == "" || got == nil {
		t.Fatalf("root attrs missing requestId: %v", found.Root.Attrs)
	}

	cons, ok := found.Root.Find("construct")
	if !ok {
		t.Fatal("construct span missing from diff trace")
	}
	for _, attr := range []string{"rules", "nodes", "edges", "nodesPreReduce"} {
		if _, ok := cons.Attrs[attr]; !ok {
			t.Fatalf("construct span missing %q attr: %v", attr, cons.Attrs)
		}
	}
	if _, ok := found.Root.Find("shape"); ok {
		t.Fatal("served diff trace has a shape span")
	}
	cmp, ok := found.Root.Find("compare")
	if !ok {
		t.Fatal("compare span missing from diff trace")
	}
	for _, attr := range []string{"nodePairs", "memoHits", "sharedHits"} {
		if _, ok := cmp.Attrs[attr]; !ok {
			t.Fatalf("compare span missing %q attr: %v", attr, cmp.Attrs)
		}
	}
	// teamA vs teamB is the paper's example: 3 discrepancy rows.
	if got := cmp.Attrs["discrepancies"]; got != float64(3) {
		t.Fatalf("compare discrepancies attr = %v, want 3", got)
	}
	if _, ok := found.Root.Find("cache-lookup"); !ok {
		t.Fatal("engine cache-lookup event missing from diff trace")
	}
}

// TestTraceResolveSpans covers the resolution endpoint's extra spans.
func TestTraceResolveSpans(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	rec := doRec(t, srv, "/v1/resolve", ResolveRequest{
		Schema: "paper", A: in(teamA), B: in(teamB),
		Decisions: map[string]string{"1": "discard", "2": "accept", "3": "discard"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range snap.Recent {
		if r.TraceID != traceID {
			continue
		}
		gen, ok := r.Root.Find("resolve-generate")
		if !ok {
			t.Fatal("resolve-generate span missing")
		}
		if gen.Attrs["method"] != "fdd" {
			t.Fatalf("resolve-generate method attr = %v", gen.Attrs)
		}
		ver, ok := r.Root.Find("resolve-verify")
		if !ok {
			t.Fatal("resolve-verify span missing")
		}
		if ver.Attrs["equivalent"] != true {
			t.Fatalf("resolve-verify equivalent attr = %v", ver.Attrs)
		}
		return
	}
	t.Fatalf("trace %s not retained", traceID)
}

// TestTraceAnalyzeSpans covers /v1/analyze: one analyze span over a
// single construction, carrying the finding and candidate counts, and no
// spans for the redundancy search's candidates.
func TestTraceAnalyzeSpans(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	rec := doRec(t, srv, "/v1/analyze", AnalyzeRequest{
		Schema: "five", Policy: in(rule.FormatPolicy(synth.RealLife(40, 31))),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range snap.Recent {
		if r.TraceID != traceID {
			continue
		}
		an, ok := r.Root.Find("analyze")
		if !ok {
			t.Fatal("analyze span missing")
		}
		constructs := 0
		r.Root.Walk(func(s trace.SpanRecord) {
			switch s.Name {
			case "construct":
				constructs++
			case "shape", "compare":
				t.Errorf("analyze trace has a %s span", s.Name)
			}
		})
		if _, ok := an.Find("construct"); !ok || constructs != 1 {
			t.Fatalf("analyze trace has %d construct spans, want one under analyze", constructs)
		}
		for _, attr := range []string{"anomalies", "neverFirstMatch", "redundant", "candidates"} {
			if _, ok := an.Attrs[attr]; !ok {
				t.Fatalf("analyze span missing %q attr: %v", attr, an.Attrs)
			}
		}
		if c, _ := an.Attrs["candidates"].(float64); c == 0 {
			t.Fatalf("analyze span candidates = %v, want the search to have run", an.Attrs["candidates"])
		}
		return
	}
	t.Fatalf("trace %s not retained", traceID)
}

// TestTracesChromeFormat checks the ?format=chrome round-trip: a valid
// JSON array of complete events loadable in about:tracing.
func TestTracesChromeFormat(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	if rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != 200 {
		t.Fatalf("diff: status %d", rec.Code)
	}

	rec := getTraces(t, srv, "?format=chrome")
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome format is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export empty")
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", ev["ph"])
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"/v1/diff", "construct", "compare"} {
		if !names[want] {
			t.Fatalf("chrome export missing %q event; have %v", want, names)
		}
	}
	if names["shape"] {
		t.Fatalf("chrome export of a served diff has a shape event; have %v", names)
	}

	// Unknown formats are a 400 with the v1 envelope.
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?format=svg", nil)
	bad := httptest.NewRecorder()
	srv.ServeHTTP(bad, req)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("format=svg: status %d", bad.Code)
	}
}

// TestSpanMetrics checks that completed traces feed the span-duration
// histograms on the metrics registry.
func TestSpanMetrics(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	srv := NewServer(WithMetrics(reg))
	if rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != 200 {
		t.Fatalf("diff: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body := rec.Body.String()
	if !strings.Contains(body, `fwserved_span_duration_seconds_count{span="construct"}`) {
		t.Fatalf("span histogram for construct missing from /metrics:\n%s", body)
	}
	if !strings.Contains(body, `fwserved_span_duration_seconds_count{span="/v1/diff"}`) {
		t.Fatalf("span histogram for the root span missing from /metrics")
	}
}

// TestUntracedEndpointsStayOut pins that /healthz and /debug/traces do
// not trace themselves into the buffer.
func TestUntracedEndpointsStayOut(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observed != 0 {
		t.Fatalf("non-/v1 endpoints were traced: observed = %d", snap.Observed)
	}
}
