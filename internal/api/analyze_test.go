package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"diversefw/internal/anomaly"
	"diversefw/internal/engine"
	"diversefw/internal/paper"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestAnalysisDifferential pins the shared analysis against the three
// analyses it replaced, on the paper's Team A/B policies, real-life
// policies of 20-60 rules on 20 seeds and the valid frontend configs:
// engine.Analyze's lists equal anomaly.Detect, anomaly.CompletelyShadowed
// and redundancy.RemoveAll element for element, /v1/audit is the
// projection of /v1/analyze's findings, and an incomplete audit omits
// exactly the redundant findings.
func TestAnalysisDifferential(t *testing.T) {
	t.Parallel()
	type entry struct {
		name, schema string
		in           PolicyInput
	}
	corpus := []entry{
		{"teamA", "paper", in(rule.FormatPolicy(paper.TeamA()))},
		{"teamB", "paper", in(rule.FormatPolicy(paper.TeamB()))},
	}
	for seed := int64(1); seed <= 20; seed++ {
		n := 20 + int(seed*2)%41
		corpus = append(corpus, entry{fmt.Sprintf("reallife-%d-%d", n, seed), "five",
			in(rule.FormatPolicy(synth.RealLife(n, seed)))})
	}
	for _, f := range []struct{ file, format string }{
		{"web-dmz.rules", "iptables"},
		{"home-router.nft", "nftables"},
		{"web-sg.json", "secgroup"},
	} {
		text, err := os.ReadFile("../../testdata/frontends/" + f.file)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, entry{f.file, "five", PolicyInput{Format: f.format, Text: string(text)}})
	}

	srv := NewServer()
	eng := engine.New(engine.Config{})
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			schema, err := schemaByName(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			p, err := parseInput(schema, c.in, "policy")
			if err != nil {
				t.Fatal(err)
			}
			a, err := eng.Analyze(context.Background(), p, true)
			if err != nil {
				t.Fatal(err)
			}
			shadowed, err := anomaly.CompletelyShadowed(p)
			if err != nil {
				t.Fatal(err)
			}
			_, removed, err := redundancy.RemoveAll(p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Anomalies, anomaly.Detect(p)) {
				t.Errorf("anomalies = %v, want %v", a.Anomalies, anomaly.Detect(p))
			}
			if !slices.Equal(a.NeverFirstMatch, shadowed) {
				t.Errorf("never-first-match = %v, want %v", a.NeverFirstMatch, shadowed)
			}
			if !slices.Equal(a.Redundant, removed) {
				t.Errorf("redundant = %v, want %v", a.Redundant, removed)
			}
			// Removal drops the never-first-match rules first, so each is
			// reported as redundant too.
			for _, i := range a.NeverFirstMatch {
				if !slices.Contains(a.Redundant, i) {
					t.Errorf("never-first-match rule %d missing from redundant %v", i+1, a.Redundant)
				}
			}

			var analyzed AnalyzeResponse
			if code := do(t, srv, "/v1/analyze", AnalyzeRequest{Schema: c.schema, Policy: c.in}, &analyzed); code != http.StatusOK {
				t.Fatalf("/v1/analyze status %d", code)
			}
			exact := map[string][]int{}
			var complete, partial []Finding
			for _, f := range analyzed.Findings {
				if f.Source == "exact" {
					exact[f.Kind] = append(exact[f.Kind], f.Rules[0]-1)
				}
				complete = append(complete, Finding{Kind: f.Kind, Rules: f.Rules, Detail: f.Detail})
				if f.Kind != "redundant" {
					partial = append(partial, Finding{Kind: f.Kind, Rules: f.Rules, Detail: f.Detail})
				}
			}
			if !slices.Equal(exact["never-first-match"], a.NeverFirstMatch) || !slices.Equal(exact["redundant"], a.Redundant) {
				t.Errorf("/v1/analyze exact findings %v, want never-first-match %v and redundant %v",
					exact, a.NeverFirstMatch, a.Redundant)
			}
			for _, tc := range []struct {
				complete bool
				want     []Finding
			}{{true, complete}, {false, partial}} {
				var audited AuditResponse
				if code := do(t, srv, "/v1/audit", AuditRequest{Schema: c.schema, Policy: c.in, Complete: tc.complete}, &audited); code != http.StatusOK {
					t.Fatalf("/v1/audit complete=%v: status %d", tc.complete, code)
				}
				if !reflect.DeepEqual(audited.Findings, tc.want) {
					t.Errorf("/v1/audit complete=%v:\n got %v\nwant %v", tc.complete, audited.Findings, tc.want)
				}
			}
		})
	}
}

// TestAnalyzeRequestTimeoutIs503: the redundancy search stops at the
// request deadline. Without it this request runs for about 19 s.
func TestAnalyzeRequestTimeoutIs503(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithRequestTimeout(300 * time.Millisecond))
	body := AnalyzeRequest{Schema: "five", Policy: in(rule.FormatPolicy(synth.RealLife(200, 1000)))}
	start := time.Now()
	rec := doRec(t, srv, "/v1/analyze", body)
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	var envelope Error
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Err.Code != CodeTimeout {
		t.Fatalf("code = %q, want %q", envelope.Err.Code, CodeTimeout)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timed-out analysis took %v, want under 2s", elapsed)
	}
}
