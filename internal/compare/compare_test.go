package compare

import (
	"context"
	"math/rand"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
)

func predsEqual(a, b rule.Predicate) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestPaperTable3 is the golden test: comparing the Team A and Team B
// firewalls must produce exactly the three discrepancies of Table 3.
func TestPaperTable3(t *testing.T) {
	t.Parallel()
	report, err := Diff(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	want := paper.ExpectedDiscrepancies()
	if len(report.Discrepancies) != len(want) {
		t.Fatalf("got %d discrepancies, want %d:\n%+v", len(report.Discrepancies), len(want), report.Discrepancies)
	}
	for _, w := range want {
		found := false
		for _, g := range report.Discrepancies {
			if g.A == w.DecisionA && g.B == w.DecisionB && predsEqual(g.Pred, w.Pred) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected discrepancy not found: pred=%v A=%v B=%v", w.Pred, w.DecisionA, w.DecisionB)
		}
	}
}

// TestDiscrepanciesAreSoundAndComplete checks the semantic contract: a
// packet gets different decisions from the two policies iff it matches a
// reported discrepancy, and the reported decisions are the policies'.
func TestDiscrepanciesAreSoundAndComplete(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	report, err := Diff(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	sm := packet.NewSampler(pa.Schema, 17)
	for i := 0; i < 5000; i++ {
		pkt := sm.BiasedPair(pa, pb)
		da, _ := packet.Oracle(pa, pkt)
		db, _ := packet.Oracle(pb, pkt)
		var hit *Discrepancy
		for k := range report.Discrepancies {
			if report.Discrepancies[k].Pred.Matches(pkt) {
				if hit != nil {
					t.Fatalf("packet %v matches two discrepancies", pkt)
				}
				hit = &report.Discrepancies[k]
			}
		}
		if (da != db) != (hit != nil) {
			t.Fatalf("packet %v: decisions %v/%v but discrepancy hit=%v", pkt, da, db, hit != nil)
		}
		if hit != nil && (hit.A != da || hit.B != db) {
			t.Fatalf("packet %v: discrepancy says %v/%v, oracles say %v/%v", pkt, hit.A, hit.B, da, db)
		}
	}
}

func TestEquivalentPolicies(t *testing.T) {
	t.Parallel()
	// Team A compared with a syntactically different but equivalent
	// version: same semantics via reordered disjoint rules.
	pa := paper.TeamA()
	eq, err := Equivalent(pa, pa.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("policy should be equivalent to its clone")
	}

	report, err := Diff(pa, paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if report.Equivalent() {
		t.Fatal("Team A and B differ")
	}
}

func TestDiffSchemaMismatch(t *testing.T) {
	t.Parallel()
	s1 := field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	p1 := rule.MustPolicy(s1, []rule.Rule{rule.CatchAll(s1, rule.Accept)})
	if _, err := Diff(p1, paper.TeamA()); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestDiffNonComprehensive(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	partial := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4)}, Decision: rule.Accept},
	})
	full := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if _, err := Diff(partial, full); err == nil {
		t.Fatal("non-comprehensive first policy should fail")
	}
	if _, err := Diff(full, partial); err == nil {
		t.Fatal("non-comprehensive second policy should fail")
	}
}

func TestDiffFDDs(t *testing.T) {
	t.Parallel()
	fa, err := fdd.Construct(paper.TeamA())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fdd.Construct(paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	report, err := DiffFDDsContext(context.Background(), fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Discrepancies) != 3 {
		t.Fatalf("got %d discrepancies, want 3", len(report.Discrepancies))
	}
	// Comparing a design given directly as a (reduced) FDD — Section 7.2.
	report2, err := DiffFDDsContext(context.Background(), fa.Reduce(), fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Discrepancies) != 3 {
		t.Fatalf("reduced input: got %d discrepancies, want 3", len(report2.Discrepancies))
	}
}

func TestMergeDiscrepancies(t *testing.T) {
	t.Parallel()
	set := interval.SetOf
	// Two rows identical except adjacent x ranges: must merge.
	ds := []Discrepancy{
		{Pred: rule.Predicate{set(0, 4), set(7, 7)}, A: rule.Accept, B: rule.Discard},
		{Pred: rule.Predicate{set(5, 9), set(7, 7)}, A: rule.Accept, B: rule.Discard},
	}
	out := MergeDiscrepancies(2, ds)
	if len(out) != 1 {
		t.Fatalf("got %d rows, want 1", len(out))
	}
	if !out[0].Pred[0].Equal(set(0, 9)) {
		t.Fatalf("merged x = %v", out[0].Pred[0])
	}

	// Different decisions must not merge.
	ds = []Discrepancy{
		{Pred: rule.Predicate{set(0, 4), set(7, 7)}, A: rule.Accept, B: rule.Discard},
		{Pred: rule.Predicate{set(5, 9), set(7, 7)}, A: rule.Discard, B: rule.Accept},
	}
	if out := MergeDiscrepancies(2, ds); len(out) != 2 {
		t.Fatalf("decision-differing rows merged: %v", out)
	}

	// Rows differing in two fields must not merge.
	ds = []Discrepancy{
		{Pred: rule.Predicate{set(0, 4), set(7, 7)}, A: rule.Accept, B: rule.Discard},
		{Pred: rule.Predicate{set(5, 9), set(8, 8)}, A: rule.Accept, B: rule.Discard},
	}
	if out := MergeDiscrepancies(2, ds); len(out) != 2 {
		t.Fatalf("two-field-differing rows merged: %v", out)
	}

	// Cascade: merging on x enables a later merge on y.
	ds = []Discrepancy{
		{Pred: rule.Predicate{set(0, 4), set(0, 4)}, A: rule.Accept, B: rule.Discard},
		{Pred: rule.Predicate{set(5, 9), set(0, 4)}, A: rule.Accept, B: rule.Discard},
		{Pred: rule.Predicate{set(0, 9), set(5, 9)}, A: rule.Accept, B: rule.Discard},
	}
	out = MergeDiscrepancies(2, ds)
	if len(out) != 1 {
		t.Fatalf("cascading merge failed: %v", out)
	}
	if !out[0].Pred[0].Equal(set(0, 9)) || !out[0].Pred[1].Equal(set(0, 9)) {
		t.Fatalf("cascaded merge wrong: %v", out[0].Pred)
	}
}

func TestReportCounters(t *testing.T) {
	t.Parallel()
	report, err := Diff(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if report.PathsCompared <= 0 {
		t.Fatal("PathsCompared not recorded")
	}
	if report.RawPaths < len(report.Discrepancies) {
		t.Fatalf("RawPaths %d < merged rows %d", report.RawPaths, len(report.Discrepancies))
	}
	if report.Timing.Total() <= 0 {
		t.Fatal("timing not recorded")
	}
}

func TestCrossCompare(t *testing.T) {
	t.Parallel()
	policies := []*rule.Policy{paper.TeamA(), paper.TeamB(), paper.AgreedFirewall()}
	reports, err := CrossCompare(policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d pair reports, want 3", len(reports))
	}
	for _, pr := range reports {
		if pr.I >= pr.J {
			t.Fatalf("bad pair order (%d, %d)", pr.I, pr.J)
		}
		if pr.Report.Equivalent() {
			t.Fatalf("pair (%d, %d) unexpectedly equivalent", pr.I, pr.J)
		}
	}
}

// TestPropRandomPoliciesDiffMatchesOracle fuzzes the whole pipeline: for
// random policy pairs, the discrepancy set must exactly characterize
// disagreement.
func TestPropRandomPoliciesDiffMatchesOracle(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(77))
	schema := field.MustSchema(
		field.Field{Name: "a", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
		field.Field{Name: "b", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
		field.Field{Name: "c", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
	)
	randPolicy := func() *rule.Policy {
		n := 1 + r.Intn(7)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			pred := make(rule.Predicate, 3)
			for fi := 0; fi < 3; fi++ {
				lo := uint64(r.Intn(32))
				hi := lo + uint64(r.Intn(32-int(lo)))
				pred[fi] = interval.SetOf(lo, hi)
			}
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, rule.Rule{Pred: pred, Decision: d})
		}
		rules = append(rules, rule.CatchAll(schema, rule.Discard))
		return rule.MustPolicy(schema, rules)
	}
	for trial := 0; trial < 20; trial++ {
		pa, pb := randPolicy(), randPolicy()
		report, err := Diff(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		// Discrepancy regions must be pairwise disjoint.
		for i := 0; i < len(report.Discrepancies); i++ {
			for j := i + 1; j < len(report.Discrepancies); j++ {
				overlap := true
				for f := 0; f < 3; f++ {
					if !report.Discrepancies[i].Pred[f].Overlaps(report.Discrepancies[j].Pred[f]) {
						overlap = false
						break
					}
				}
				if overlap {
					t.Fatalf("trial %d: rows %d and %d overlap", trial, i, j)
				}
			}
		}
		// Exhaustive check on a coarse grid plus biased samples.
		sm := packet.NewSampler(schema, int64(trial))
		for i := 0; i < 1000; i++ {
			pkt := sm.BiasedPair(pa, pb)
			da, _ := packet.Oracle(pa, pkt)
			db, _ := packet.Oracle(pb, pkt)
			matched := false
			for _, d := range report.Discrepancies {
				if d.Pred.Matches(pkt) {
					matched = true
					if d.A != da || d.B != db {
						t.Fatalf("trial %d: wrong decisions for %v", trial, pkt)
					}
				}
			}
			if matched != (da != db) {
				t.Fatalf("trial %d: coverage wrong for %v (da=%v db=%v matched=%v)", trial, pkt, da, db, matched)
			}
		}
	}
}
