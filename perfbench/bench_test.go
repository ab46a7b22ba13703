package main

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"diversefw/internal/anomaly"
	"diversefw/internal/api"
	"diversefw/internal/compare"
	"diversefw/internal/impact"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// smallWorkloads builds every workload with short pools.
func smallWorkloads(t *testing.T, seed int64) []*Workload {
	t.Helper()
	imp, err := editImpact(seed, 24)
	if err != nil {
		t.Fatal(err)
	}
	return []*Workload{diverseCold(seed, 6), resubmitWarm(seed), imp, analyzeAudit(seed, 24)}
}

func TestSameSeedSameBodiesNextSeedDifferent(t *testing.T) {
	a, b, next := smallWorkloads(t, 7), smallWorkloads(t, 7), smallWorkloads(t, 8)
	for i := range a {
		name := a[i].Name
		bodies := func(w *Workload) [][]byte {
			var out [][]byte
			for _, r := range append(append([]Request(nil), w.Prime...), w.Pool...) {
				out = append(out, r.Body)
			}
			return out
		}
		ba, bb, bn := bodies(a[i]), bodies(b[i]), bodies(next[i])
		if len(ba) != len(bb) || len(ba) != len(bn) {
			t.Fatalf("%s: body counts differ: %d, %d, %d", name, len(ba), len(bb), len(bn))
		}
		differ := 0
		for j := range ba {
			if !bytes.Equal(ba[j], bb[j]) {
				t.Errorf("%s: body %d differs between two builds from seed 7", name, j)
			}
			if !bytes.Equal(ba[j], bn[j]) {
				differ++
			}
		}
		// A body may repeat across seeds by chance (two seeds dropping the
		// same rule of a 40-rule base), but most must change.
		if differ*2 < len(ba) {
			t.Errorf("%s: only %d of %d bodies change from seed 7 to seed 8", name, differ, len(ba))
		}
	}
}

func TestBodiesDecodeStrictly(t *testing.T) {
	for _, w := range smallWorkloads(t, 3) {
		for j, r := range w.Pool {
			var err error
			switch w.Kind {
			case kindDiff:
				err = decodeBody(r.Body, new(api.DiffRequest))
			case kindImpact:
				err = decodeBody(r.Body, new(api.ImpactRequest))
			case kindAnalyze:
				err = decodeBody(r.Body, new(api.AnalyzeRequest))
			}
			if err != nil {
				t.Fatalf("%s body %d: %v", w.Name, j, err)
			}
		}
	}
}

func TestNoBodyRepeatsInColdPools(t *testing.T) {
	// Pools long enough to visit each base several times.
	imp, err := editImpact(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Workload{diverseCold(5, 3*coldFamily), imp, analyzeAudit(5, 3*analyzeFamily)} {
		seen := map[string]int{}
		for j, r := range w.Pool {
			if k, ok := seen[string(r.Body)]; ok {
				t.Errorf("%s: body %d repeats body %d", w.Name, j, k)
			}
			seen[string(r.Body)] = j
		}
	}
}

func TestOrigIndicesTrackInjectedErrors(t *testing.T) {
	ref := synth.RealLife(60, 4)
	faulty, log := synth.InjectErrors(ref, synth.ErrorConfig{OrderingErrors: 6, MissingRules: 3, Seed: 9})
	idx := origIndices(ref.Size(), log)
	if len(idx) != faulty.Size() {
		t.Fatalf("%d indices for %d rules", len(idx), faulty.Size())
	}
	for i, o := range idx {
		if rule.FormatRule(schema, faulty.Rules[i]) != rule.FormatRule(schema, ref.Rules[o]) {
			t.Fatalf("faulty rule %d is not reference rule %d", i, o)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		rank, over int
	}{
		{100, 90, 90, 10},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{20, 50, 10, 10},
		{19, 50, 10, 9}, // too few samples: the median
		{1, 50, 1, 0},
	} {
		p, rank, over := tailPercentile(tc.n)
		if p != tc.p || rank != tc.rank || over != tc.over {
			t.Errorf("n=%d: got p%v rank %d beyond %d, want p%v rank %d beyond %d",
				tc.n, p, rank, over, tc.p, tc.rank, tc.over)
		}
	}
	// For every n, the reported percentile leaves exactly 10 samples
	// beyond it, and no higher percentile leaves 10.
	for n := 20; n <= 3000; n++ {
		p, rank, over := tailPercentile(n)
		if over != minBeyond || n-rank != minBeyond {
			t.Fatalf("n=%d: %d beyond rank %d", n, over, rank)
		}
		if higher := rank + 1; n-higher >= minBeyond {
			t.Fatalf("n=%d: rank %d also leaves %d beyond", n, higher, n-higher)
		}
		if want := 100 * float64(rank) / float64(n); p != want {
			t.Fatalf("n=%d: percentile %v, want %v", n, p, want)
		}
	}
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, p, over := tail(xs); v != 90 || p != 90 || over != 10 {
		t.Errorf("tail(1..100) = %v at p%v with %d beyond, want 90 at p90 with 10", v, p, over)
	}
}

// diffPair is a small reference policy and a redesign of it.
func diffPair(seed int64) (*rule.Policy, *rule.Policy) {
	ref := synth.RealLife(40, seed)
	faulty, _ := synth.InjectErrors(ref, synth.ErrorConfig{OrderingErrors: 4, MissingRules: 2, Seed: seed + 1})
	return ref, faulty
}

func TestOracleAcceptsDiffAndFlagsCorruptedRow(t *testing.T) {
	a, b := diffPair(11)
	rep, err := compare.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	resp := api.ConvertReport(schema, rep)
	if len(resp.Discrepancies) == 0 {
		t.Fatal("test pair has no discrepancies")
	}
	if err := checkDiff(a, b, &resp, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("oracle rejects the pipeline's own report: %v", err)
	}
	// Swap one row's decisions: its region now claims the wrong sides.
	bad := resp
	bad.Discrepancies = append([]api.Discrepancy(nil), resp.Discrepancies...)
	row := bad.Discrepancies[0]
	row.A, row.B = row.B, row.A
	bad.Discrepancies[0] = row
	if err := checkDiff(a, b, &bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oracle accepts a row with swapped decisions")
	}
	// Claim equivalence: every disagreement is now unreported.
	none := api.DiffResponse{Equivalent: true}
	if err := checkDiff(a, b, &none, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oracle accepts an empty report for differing policies")
	}
}

func TestOracleFlagsCorruptedImpact(t *testing.T) {
	before := synth.RealLife(40, 21)
	e, err := impact.ParseEdit(schema, "insert 1: any -> discard")
	if err != nil {
		t.Fatal(err)
	}
	after, err := impact.Apply(before, []impact.Edit{e})
	if err != nil {
		t.Fatal(err)
	}
	im, err := impact.Analyze(before, after)
	if err != nil {
		t.Fatal(err)
	}
	resp := api.ConvertImpact(im)
	if resp.NoImpact {
		t.Fatal("test edit has no impact")
	}
	if err := checkImpact(before, after, &resp, rand.New(rand.NewSource(2))); err != nil {
		t.Fatalf("oracle rejects the pipeline's own impact: %v", err)
	}
	lie := api.ImpactResponse{NoImpact: true}
	if err := checkImpact(before, after, &lie, rand.New(rand.NewSource(2))); err == nil {
		t.Error("oracle accepts noImpact for an edit that changes decisions")
	}
	wrongRule := resp
	wrongRule.Attributions = append([]api.Attribution(nil), resp.Attributions...)
	wrongRule.Attributions[0].AfterRule++
	if err := checkImpact(before, after, &wrongRule, rand.New(rand.NewSource(2))); err == nil {
		t.Error("oracle accepts a wrong after-rule attribution")
	}
	// An edit that changes nothing must pass as noImpact.
	same := api.ImpactResponse{NoImpact: true}
	if err := checkImpact(before, before, &same, rand.New(rand.NewSource(2))); err != nil {
		t.Errorf("oracle rejects noImpact for an unchanged policy: %v", err)
	}
}

func TestOracleFlagsWrongAnalysis(t *testing.T) {
	p := synth.RealLife(40, 31)
	shadowed, err := anomaly.CompletelyShadowed(p)
	if err != nil {
		t.Fatal(err)
	}
	_, removed, err := redundancy.RemoveAll(p)
	if err != nil {
		t.Fatal(err)
	}
	resp := analyzeResponse(p, anomaly.Detect(p), shadowed, removed)
	if err := checkAnalyze(p, &resp, rand.New(rand.NewSource(3))); err != nil {
		t.Fatalf("oracle rejects the analyses' own findings: %v", err)
	}
	// Rule 1 always decides the packets it matches.
	claim := func(kind string) *api.AnalyzeResponse {
		r := resp
		r.Findings = append(append([]api.AnalyzeFinding(nil), resp.Findings...),
			api.AnalyzeFinding{Kind: kind, Source: "exact", Rules: []int{1}})
		return &r
	}
	if err := checkAnalyze(p, claim("never-first-match"), rand.New(rand.NewSource(3))); err == nil {
		t.Error("oracle accepts never-first-match for rule 1")
	}
	// Rule 1 must decide differently from what the rest would do for
	// some of its packets; pick a policy where that holds.
	if first, _ := redundancy.IsRedundant(p, 0); first {
		t.Skip("rule 1 of the test policy is redundant")
	}
	if err := checkAnalyze(p, claim("redundant"), rand.New(rand.NewSource(3))); err == nil {
		t.Error("oracle accepts a non-redundant rule reported redundant")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 0, Name: "request", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Req: 0, Name: "api.decode", Start: 0, End: 10e6},
		{ID: 2, Parent: 0, Req: 0, Name: "engine.compile", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 0, Req: 0, Name: "engine.compile", Start: 40e6, End: 60e6},
		{ID: 4, Parent: -1, Req: 0, Name: "engine.hash", Start: 100e6, End: 101e6, Probe: true},
	}
	st := summarize(spans, 1)
	if got := st["engine.compile"]; got.Calls != 2 || got.CallMs != 25 || got.SelfMs != 50 {
		t.Errorf("engine.compile: %+v, want 2 calls, 25 ms median, 50 ms self per request", *got)
	}
	if got := st["engine.hash"]; got.CallMs != 1 || got.SelfMs != 0 {
		t.Errorf("engine.hash probe: %+v, want 1 ms per call and no self time", *got)
	}
	if _, ok := st["request"]; ok {
		t.Error("the request root is reported as a layer")
	}
}

func TestParseExposition(t *testing.T) {
	in := "# HELP x y\n# TYPE x counter\n" +
		"fwengine_cache_hits_total{cache=\"report\"} 12\nfwguard_admission_queue_wait_seconds_sum 0.25\n"
	s, err := parseExposition([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s[reportHits] != 12 || s[queueWaitSum] != 0.25 || len(s) != 2 {
		t.Errorf("parsed %v", s)
	}
}

func TestFailedRequestsMakeTheRunIncorrect(t *testing.T) {
	w := analyzeAudit(1, 4)
	good := []sample{
		{Seq: 0, Latency: 10 * time.Millisecond, Status: http.StatusOK, Sum: 1},
		{Seq: 1, Latency: 20 * time.Millisecond, Status: http.StatusOK, Sum: 2},
	}
	run := func(samples []sample, wrong map[bodyKey]bool) e2eResult {
		win := &window{load: loadResult{Samples: samples, Wall: time.Second}}
		return endToEnd(win, []float64{0.01}, w, wrong)
	}
	if r := run(good, nil); r.failed != 0 || !verdict(r, nil) {
		t.Fatalf("clean run: %d failed, verdict %v; want 0 and true", r.failed, verdict(r, nil))
	}
	for _, c := range []struct {
		name  string
		extra sample
	}{
		{"a 503", sample{Seq: 2, Latency: time.Millisecond, Status: http.StatusServiceUnavailable}},
		{"a 400", sample{Seq: 2, Latency: time.Millisecond, Status: http.StatusBadRequest}},
		{"a transport error", sample{Seq: 2, Latency: time.Millisecond, Status: 0}},
	} {
		r := run(append(append([]sample(nil), good...), c.extra), nil)
		if r.failed != 1 || verdict(r, nil) {
			t.Errorf("%s: %d failed, verdict %v; want 1 and false", c.name, r.failed, verdict(r, nil))
		}
	}
	if r := run(good, map[bodyKey]bool{{pool: 1, sum: 2}: true}); r.failed != 1 || r.wrong != 1 || verdict(r, nil) {
		t.Errorf("wrong result: %d failed, %d wrong, verdict %v; want 1, 1 and false", r.failed, r.wrong, verdict(r, nil))
	}
	if verdict(run(good, nil), []error{errors.New("admission shed 1 requests")}) {
		t.Error("a failed workload-shape guard leaves the run correct")
	}
}
