package resolve

import (
	"context"
	"errors"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// paperPlan builds the plan for the paper's running example and resolves
// it per Table 4.
func paperPlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	resolutions := paper.ResolvedDiscrepancies()
	err = plan.ResolveAll(func(i int, d compare.Discrepancy) rule.Decision {
		for _, res := range resolutions {
			match := true
			for f := range d.Pred {
				if !d.Pred[f].Equal(res.Pred[f]) {
					match = false
					break
				}
			}
			if match {
				return res.Resolved
			}
		}
		t.Fatalf("discrepancy %d (%v) not in Table 4", i, d.Pred)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func checkAgreedSemantics(t *testing.T, final *rule.Policy) {
	t.Helper()
	eq, err := compare.Equivalent(final, paper.AgreedFirewall())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("final firewall deviates from the agreed semantics:\n%s", rule.FormatPolicy(final))
	}
}

// TestMethod1PaperTable5 reproduces Table 5: the firewall generated from
// the corrected FDD is equivalent to the agreed semantics and compact.
func TestMethod1PaperTable5(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	final, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	checkAgreedSemantics(t, final)
	if err := plan.Verify(final); err != nil {
		t.Fatal(err)
	}
	// The paper's Table 5 firewall has 4 rules; the generator must stay in
	// that ballpark, not explode into path-per-rule output.
	if final.Size() > 6 {
		t.Fatalf("method 1 produced %d rules, want a compact firewall:\n%s",
			final.Size(), rule.FormatPolicy(final))
	}
}

// TestMethod2FromA reproduces Table 6: Team A's firewall plus the two
// corrections A was wrong about (rows 1 and 3 of Table 4).
func TestMethod2FromA(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	final, err := plan.Method2(true)
	if err != nil {
		t.Fatal(err)
	}
	checkAgreedSemantics(t, final)
	if err := plan.Verify(final); err != nil {
		t.Fatal(err)
	}
	// 2 corrections + 3 original rules = 5, minus anything redundancy
	// removal strips.
	if final.Size() > 5 {
		t.Fatalf("method 2 (A) produced %d rules:\n%s", final.Size(), rule.FormatPolicy(final))
	}
}

// TestMethod2FromB reproduces Table 7: Team B's firewall plus the one
// correction B was wrong about (row 2 of Table 4).
func TestMethod2FromB(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	final, err := plan.Method2(false)
	if err != nil {
		t.Fatal(err)
	}
	checkAgreedSemantics(t, final)
	if err := plan.Verify(final); err != nil {
		t.Fatal(err)
	}
	if final.Size() > 5 {
		t.Fatalf("method 2 (B) produced %d rules:\n%s", final.Size(), rule.FormatPolicy(final))
	}
}

// TestMethod2HonoursCancellation: a canceled context stops the
// redundancy removal with context.Canceled instead of returning a
// compacted policy.
func TestMethod2HonoursCancellation(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, useA := range []bool{true, false} {
		final, err := plan.Method2Context(ctx, useA)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("useA=%v: err = %v, want context.Canceled", useA, err)
		}
		if final != nil {
			t.Fatalf("useA=%v: canceled method 2 returned a policy:\n%s", useA, rule.FormatPolicy(final))
		}
	}
}

// TestMethodsAgree checks the paper's implicit claim: both resolution
// methods generate equivalent firewalls.
func TestMethodsAgree(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	m1, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	m2a, err := plan.Method2(true)
	if err != nil {
		t.Fatal(err)
	}
	m2b, err := plan.Method2(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		x, y *rule.Policy
	}{
		{"m1 vs m2a", m1, m2a},
		{"m1 vs m2b", m1, m2b},
		{"m2a vs m2b", m2a, m2b},
	} {
		eq, err := compare.Equivalent(pair.x, pair.y)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("%s: methods disagree", pair.name)
		}
	}
}

// TestResolvedSemanticsPointwise spot-checks the agreed behaviour on the
// paper's three questions.
func TestResolvedSemanticsPointwise(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	final, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pkt  rule.Packet
		want rule.Decision
	}{
		{"malicious may not e-mail the server", rule.Packet{0, paper.Alpha, paper.Gamma, 25, paper.TCP}, rule.Discard},
		{"clean UDP e-mail is allowed", rule.Packet{0, 7, paper.Gamma, 25, paper.UDP}, rule.Accept},
		{"clean TCP e-mail is allowed", rule.Packet{0, 7, paper.Gamma, 25, paper.TCP}, rule.Accept},
		{"non-mail to the server is blocked", rule.Packet{0, 7, paper.Gamma, 80, paper.TCP}, rule.Discard},
		{"malicious to other hosts is blocked", rule.Packet{0, paper.Alpha, 9, 80, paper.TCP}, rule.Discard},
		{"other inbound traffic is accepted", rule.Packet{0, 7, 9, 80, paper.TCP}, rule.Accept},
		{"outgoing traffic is accepted", rule.Packet{1, paper.Alpha, paper.Gamma, 25, paper.UDP}, rule.Accept},
	}
	for _, c := range cases {
		got, _, ok := final.Decide(c.pkt)
		if !ok || got != c.want {
			t.Errorf("%s: got %v (ok=%v), want %v", c.name, got, ok, c.want)
		}
	}
}

// TestCorrectedFDDsBecomeIdentical checks Section 6.1's observation:
// after applying the resolution to both semi-isomorphic FDDs, they are
// exactly the same diagram (same shape, same terminal decisions).
func TestCorrectedFDDsBecomeIdentical(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	sa, sb, err := plan.CorrectedFDDs()
	if err != nil {
		t.Fatal(err)
	}
	if !shape.SemiIsomorphic(sa, sb) {
		t.Fatal("corrected diagrams lost semi-isomorphism")
	}
	var walk func(a, b *fdd.Node)
	walk = func(a, b *fdd.Node) {
		if a.IsTerminal() {
			if a.Decision != b.Decision {
				t.Fatalf("corrected terminals differ: %v vs %v", a.Decision, b.Decision)
			}
			return
		}
		for i := range a.Edges {
			walk(a.Edges[i].To, b.Edges[i].To)
		}
	}
	walk(sa.Root, sb.Root)

	// And the corrected diagram implements the agreed semantics.
	sm := packet.NewSampler(plan.A.Schema, 47)
	agreed := paper.AgreedFirewall()
	for i := 0; i < 2000; i++ {
		pkt := sm.BiasedPair(plan.A, plan.B)
		want, _ := packet.Oracle(agreed, pkt)
		got, ok := sa.Decide(pkt)
		if !ok || got != want {
			t.Fatalf("corrected FDD wrong on %v: %v vs %v", pkt, got, want)
		}
	}
}

func TestCorrectedFDDsRequireResolution(t *testing.T) {
	t.Parallel()
	plan, err := NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.CorrectedFDDs(); err == nil {
		t.Fatal("unresolved plan should fail")
	}
}

func TestUnresolvedPlanRejected(t *testing.T) {
	t.Parallel()
	plan, err := NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Resolved() {
		t.Fatal("fresh plan should be unresolved")
	}
	if _, err := plan.Method1(); err == nil {
		t.Fatal("method 1 on unresolved plan should fail")
	}
	if _, err := plan.Method2(true); err == nil {
		t.Fatal("method 2 on unresolved plan should fail")
	}
	if err := plan.Verify(paper.TeamA()); err == nil {
		t.Fatal("verify on unresolved plan should fail")
	}
}

func TestResolveValidation(t *testing.T) {
	t.Parallel()
	plan, err := NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Resolve(-1, rule.Accept); err == nil {
		t.Fatal("negative index should fail")
	}
	if err := plan.Resolve(99, rule.Accept); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if err := plan.Resolve(0, 0); err == nil {
		t.Fatal("zero decision should fail")
	}
	if err := plan.Resolve(0, rule.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsWrongCandidate(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	// Team A is wrong on two resolved regions; Verify must reject it.
	if err := plan.Verify(paper.TeamA()); err == nil {
		t.Fatal("verify should reject Team A's original firewall")
	}
}

// TestEquivalentInputsYieldEmptyPlan covers the no-discrepancy case: the
// plan is trivially resolved and both methods return the semantics
// unchanged.
func TestEquivalentInputsYieldEmptyPlan(t *testing.T) {
	t.Parallel()
	a := paper.TeamA()
	plan, err := NewPlan(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Report.Discrepancies) != 0 {
		t.Fatal("identical policies should have no discrepancies")
	}
	if !plan.Resolved() {
		t.Fatal("empty plan should be resolved")
	}
	m1, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	eq, err := compare.Equivalent(m1, a)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("method 1 changed semantics of an already-agreed firewall")
	}
	m2, err := plan.Method2(false)
	if err != nil {
		t.Fatal(err)
	}
	eq, err = compare.Equivalent(m2, a)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("method 2 changed semantics of an already-agreed firewall")
	}
}

// TestMethodsAgainstOracle fuzz-checks both methods' outputs against the
// reference semantics on biased samples.
func TestMethodsAgainstOracle(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	m1, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := plan.Method2(true)
	if err != nil {
		t.Fatal(err)
	}
	agreed := paper.AgreedFirewall()
	sm := packet.NewSampler(agreed.Schema, 23)
	for i := 0; i < 3000; i++ {
		pkt := sm.BiasedPair(agreed, plan.A)
		want, _ := packet.Oracle(agreed, pkt)
		if got, _ := packet.Oracle(m1, pkt); got != want {
			t.Fatalf("method 1 wrong on %v: %v vs %v", pkt, got, want)
		}
		if got, _ := packet.Oracle(m2, pkt); got != want {
			t.Fatalf("method 2 wrong on %v: %v vs %v", pkt, got, want)
		}
	}
}
