package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/impact"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// tailEdits flips the decision of one rule near the end of p.
func tailEdits(t *testing.T, p *rule.Policy) []impact.Edit {
	t.Helper()
	i := p.Size() - 3
	r := p.Rules[i]
	if r.Decision == rule.Accept {
		r.Decision = rule.Discard
	} else {
		r.Decision = rule.Accept
	}
	return []impact.Edit{{Kind: impact.ReplaceRule, Index: i, Rule: r}}
}

func TestImpactEditsIncremental(t *testing.T) {
	e := New(Config{})
	before := synth.Synthetic(synth.Config{Rules: 120, Seed: 3})
	edits := tailEdits(t, before)

	after, r, st, err := e.ImpactEdits(context.Background(), before, edits)
	if err != nil {
		t.Fatalf("ImpactEdits: %v", err)
	}
	if !st.Incremental {
		t.Fatalf("cold tail edit was not served incrementally: %+v", st)
	}
	if st.RulesReappended <= 0 || st.RulesReappended >= before.Size()/2 {
		t.Fatalf("tail edit reappended %d of %d rules", st.RulesReappended, before.Size())
	}
	if st.CheckpointRules+st.RulesReappended != after.Size() {
		t.Fatalf("inconsistent stats %+v for %d rules", st, after.Size())
	}
	if r.Equivalent() {
		t.Fatalf("flipping a reachable decision reported no impact")
	}
	s := e.Stats()
	if s.Incremental.Attempted != 1 || s.Incremental.Used != 1 || s.Incremental.Fallback != 0 {
		t.Fatalf("incremental counters: %+v", s.Incremental)
	}

	// The same rows as the lockstep oracle, and the same cached report
	// DiffPolicies serves for the pair.
	lock, err := compare.Diff(before, after)
	if err != nil {
		t.Fatalf("lockstep diff: %v", err)
	}
	if !reflect.DeepEqual(lock.Discrepancies, r.Discrepancies) {
		t.Fatalf("edits-path rows differ from the lockstep oracle's")
	}
	full, _, err := e.DiffPolicies(context.Background(), before, after)
	if err != nil {
		t.Fatalf("DiffPolicies: %v", err)
	}
	if full != r {
		t.Fatalf("DiffPolicies did not serve the edits path's cached report")
	}

	// Second identical call: everything cached, including the derived
	// edge; no new construction.
	compilations := e.Stats().Compilations
	_, r2, st2, err := e.ImpactEdits(context.Background(), before, edits)
	if err != nil {
		t.Fatalf("second ImpactEdits: %v", err)
	}
	if !st2.ReportCached || st2.CompileHits != 2 {
		t.Fatalf("second call not fully cached: %+v", st2)
	}
	if st2.Incremental {
		t.Fatalf("cache hit must not claim an incremental build")
	}
	if r2 != r {
		t.Fatalf("second call did not serve the cached report")
	}
	if got := e.Stats().Compilations; got != compilations {
		t.Fatalf("second call compiled again (%d -> %d)", compilations, got)
	}
	if st2.AfterHash != st.AfterHash {
		t.Fatalf("derived edge returned a different after hash")
	}
}

func TestImpactEditsFallbackToScratch(t *testing.T) {
	e := New(Config{})
	e.resume = func(ctx context.Context, base *fdd.Builder, after *rule.Policy) (*fdd.Builder, fdd.ResumeStats, error) {
		return nil, fdd.ResumeStats{}, fmt.Errorf("injected resume failure")
	}
	before := synth.Synthetic(synth.Config{Rules: 80, Seed: 5})
	edits := tailEdits(t, before)
	after, r, st, err := e.ImpactEdits(context.Background(), before, edits)
	if err != nil {
		t.Fatalf("ImpactEdits with failing resume: %v", err)
	}
	if st.Incremental {
		t.Fatalf("failed resume still reported incremental")
	}
	if r == nil || r.Equivalent() {
		t.Fatalf("fallback lost the impact report")
	}
	s := e.Stats()
	if s.Incremental.Attempted != 1 || s.Incremental.Used != 0 || s.Incremental.Fallback != 1 {
		t.Fatalf("incremental counters after fallback: %+v", s.Incremental)
	}
	// The scratch fallback result IS cached (it succeeded).
	if _, ok := e.compiled.get(PolicyHash(after)); !ok {
		t.Fatalf("successful scratch fallback was not cached")
	}
}

func TestImpactEditsAbortNotCachedNotFallenBack(t *testing.T) {
	e := New(Config{})
	e.resume = func(ctx context.Context, base *fdd.Builder, after *rule.Policy) (*fdd.Builder, fdd.ResumeStats, error) {
		return nil, fdd.ResumeStats{}, fmt.Errorf("fdd: construction canceled: %w", context.Canceled)
	}
	before := synth.Synthetic(synth.Config{Rules: 60, Seed: 7})
	edits := tailEdits(t, before)
	after, _ := impact.Apply(before, edits)
	_, _, st, err := e.ImpactEdits(context.Background(), before, edits)
	if err == nil {
		t.Fatalf("cancellation during resume did not surface")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled in chain, got %v", err)
	}
	if st.Incremental {
		t.Fatalf("aborted build reported incremental")
	}
	s := e.Stats()
	if s.Incremental.Fallback != 0 {
		t.Fatalf("cancellation must not trigger scratch fallback: %+v", s.Incremental)
	}
	if _, ok := e.compiled.get(PolicyHash(after)); ok {
		t.Fatalf("aborted incremental build was cached")
	}
}

func TestImpactEditsAndDiffShareOneReport(t *testing.T) {
	// The edits path and DiffPolicies run the same walk and key the same
	// report cache, so whichever runs first, the second is a hit on the
	// very same report: one entry, one row numbering for the pair.
	before := synth.Synthetic(synth.Config{Rules: 100, Seed: 9})
	edits := tailEdits(t, before)
	after, err := impact.Apply(before, edits)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	type call func(e *Engine) (r *compare.Report, cached bool)
	diff := func(e *Engine) (*compare.Report, bool) {
		r, st, err := e.DiffPolicies(context.Background(), before, after)
		if err != nil {
			t.Fatalf("DiffPolicies: %v", err)
		}
		return r, st.ReportCached
	}
	edit := func(e *Engine) (*compare.Report, bool) {
		_, r, st, err := e.ImpactEdits(context.Background(), before, edits)
		if err != nil {
			t.Fatalf("ImpactEdits: %v", err)
		}
		return r, st.ReportCached
	}
	for i, order := range [][2]call{{diff, edit}, {edit, diff}} {
		e := New(Config{})
		first, _ := order[0](e)
		second, cached := order[1](e)
		if !cached || second != first {
			t.Fatalf("order %d: second call did not reuse the first call's report (cached %v)", i, cached)
		}
		if n := e.Stats().Reports.Entries; n != 1 {
			t.Fatalf("order %d: %d report-cache entries for one pair, want 1", i, n)
		}
	}
}

func TestIncrementalMetricsScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{Metrics: reg})
	before := synth.Synthetic(synth.Config{Rules: 80, Seed: 11})
	if _, _, _, err := e.ImpactEdits(context.Background(), before, tailEdits(t, before)); err != nil {
		t.Fatalf("ImpactEdits: %v", err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"fwengine_incremental_attempted_total 1",
		"fwengine_incremental_used_total 1",
		"fwengine_incremental_fallback_total 0",
		"fwengine_incremental_rules_reappended_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
