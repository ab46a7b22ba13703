package redundancy

import (
	"context"
	"errors"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
)

func schema1() *field.Schema {
	return field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 99), Kind: field.KindInt})
}

func mk(t *testing.T, s *field.Schema, rules []rule.Rule) *rule.Policy {
	t.Helper()
	p, err := rule.NewPolicy(s, rules)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEffectiveDetectsShadowedRules(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard}, // fully shadowed
		rule.CatchAll(s, rule.Discard),
	})
	eff, err := Effective(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if eff[i] != want[i] {
			t.Errorf("effective[%d] = %v, want %v", i, eff[i], want[i])
		}
	}
}

func TestIsRedundantUpward(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Discard),
	})
	red, err := IsRedundant(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !red {
		t.Fatal("shadowed rule should be redundant")
	}
}

func TestIsRedundantDownward(t *testing.T) {
	t.Parallel()
	s := schema1()
	// Rule 0 is a first match for [0,20], but the catch-all gives those
	// packets the same decision: downward redundant.
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Accept},
		rule.CatchAll(s, rule.Accept),
	})
	red, err := IsRedundant(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !red {
		t.Fatal("downward-redundant rule not detected")
	}
}

func TestIsRedundantNecessaryRule(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	red, err := IsRedundant(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if red {
		t.Fatal("necessary rule reported redundant")
	}
	// The catch-all is the sole cover of [21,99]: removing it leaves the
	// policy non-comprehensive, so it is not redundant either.
	red, err = IsRedundant(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if red {
		t.Fatal("sole-cover catch-all reported redundant")
	}
}

func TestIsRedundantIndexRange(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if _, err := IsRedundant(p, -1); err == nil {
		t.Fatal("negative index should fail")
	}
	if _, err := IsRedundant(p, 1); err == nil {
		t.Fatal("out-of-range index should fail")
	}
}

func TestRemoveAllIdenticalRules(t *testing.T) {
	t.Parallel()
	s := schema1()
	dup := rule.Rule{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Discard}
	p := mk(t, s, []rule.Rule{dup, dup, rule.CatchAll(s, rule.Accept)})
	out, removed, err := RemoveAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("got %d rules, want 2 (one duplicate removed):\n%s", out.Size(), rule.FormatPolicy(out))
	}
	if len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("removed = %v, want [1]", removed)
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
}

// TestRemoveAllContextCanceled: a candidate whose construction fails
// because ctx died is not a "sole cover" rule to skip; the search ends
// with ctx's error instead of a shorter removal list.
func TestRemoveAllContextCanceled(t *testing.T) {
	t.Parallel()
	s := schema1()
	// Rule 1 is downward redundant, so removal must construct a candidate.
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Discard},
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	f, eff, err := fdd.ConstructEffective(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, removed, err := RemoveAllContext(ctx, p, f, eff)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (removed %v), want context.Canceled", err, removed)
	}
	if out != nil {
		t.Fatalf("canceled removal returned a policy:\n%s", rule.FormatPolicy(out))
	}
}

func TestRemoveAllMixedRedundancy(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard}, // upward redundant
		{Pred: rule.Predicate{interval.SetOf(60, 70)}, Decision: rule.Accept},  // downward redundant
		rule.CatchAll(s, rule.Accept),
	})
	out, removed, err := RemoveAll(p)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
	// Rules 1 and 2 must go; rule 0 then becomes downward redundant too
	// (everything left accepts), leaving just the catch-all.
	if out.Size() != 1 {
		t.Fatalf("got %d rules, want 1:\n%s", out.Size(), rule.FormatPolicy(out))
	}
	if len(removed) != 3 {
		t.Fatalf("removed = %v, want 3 removals", removed)
	}
}

func TestRemoveAllNoRedundancy(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	out, removed, err := RemoveAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || out.Size() != p.Size() {
		t.Fatalf("Team B has no redundant rules; removed %v", removed)
	}
}

func TestRemoveAllResultIsIrredundant(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 30)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(0, 60)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(40, 80)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	out, _, err := RemoveAll(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Size(); i++ {
		red, err := IsRedundant(out, i)
		if err != nil {
			t.Fatal(err)
		}
		if red {
			t.Fatalf("rule %d still redundant after RemoveAll:\n%s", i, rule.FormatPolicy(out))
		}
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
}
