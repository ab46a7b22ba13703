// Package resolve implements the discrepancy-resolution phase of diverse
// firewall design (Section 6): after the teams agree on a decision for
// every functional discrepancy, generate the final firewall.
//
// Two methods are provided, matching the paper:
//
//   - Method 1: correct the terminal labels of one shaped FDD according to
//     the resolution, then generate a compact rule sequence from the
//     corrected FDD (package gen).
//   - Method 2: prepend, to one of the original firewalls, the resolution
//     rules on which that firewall was wrong, then remove redundant rules
//     (package redundancy).
//
// Both methods must produce equivalent firewalls; Plan.Verify checks any
// candidate against the resolved semantics.
package resolve

import (
	"context"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/trace"
)

// Plan is a resolution session for one pair of firewalls: the comparison
// report plus the agreed decision for each discrepancy.
type Plan struct {
	A, B   *rule.Policy
	Report *compare.Report
	// Decisions[i] is the agreed decision for Report.Discrepancies[i];
	// zero means still unresolved.
	Decisions []rule.Decision
}

// NewPlan compares the two firewalls and returns a plan with all
// discrepancies unresolved.
func NewPlan(a, b *rule.Policy) (*Plan, error) {
	return NewPlanContext(context.Background(), a, b)
}

// NewPlanContext is NewPlan with cancellation: the underlying comparison
// pipeline aborts as soon as ctx is canceled (see compare.DiffContext).
func NewPlanContext(ctx context.Context, a, b *rule.Policy) (*Plan, error) {
	report, err := compare.DiffContext(ctx, a, b)
	if err != nil {
		return nil, err
	}
	return &Plan{
		A:         a,
		B:         b,
		Report:    report,
		Decisions: make([]rule.Decision, len(report.Discrepancies)),
	}, nil
}

// NewPlanFromReport builds a plan from an already-computed comparison
// report for (a, b) — the entry point for callers that cache reports
// (see internal/engine). The report is only read, so one cached report
// can back many concurrent plans; this also keeps discrepancy numbering
// identical between a diff and the resolve session built on it.
func NewPlanFromReport(a, b *rule.Policy, report *compare.Report) *Plan {
	return &Plan{
		A:         a,
		B:         b,
		Report:    report,
		Decisions: make([]rule.Decision, len(report.Discrepancies)),
	}
}

// Resolve records the agreed decision for discrepancy i.
func (p *Plan) Resolve(i int, d rule.Decision) error {
	if i < 0 || i >= len(p.Decisions) {
		return fmt.Errorf("resolve: discrepancy index %d out of range [0, %d)", i, len(p.Decisions))
	}
	if d <= 0 {
		return fmt.Errorf("resolve: invalid decision %d", int(d))
	}
	p.Decisions[i] = d
	return nil
}

// ResolveAll records decisions for every discrepancy using the chooser.
func (p *Plan) ResolveAll(choose func(i int, d compare.Discrepancy) rule.Decision) error {
	for i, d := range p.Report.Discrepancies {
		if err := p.Resolve(i, choose(i, d)); err != nil {
			return err
		}
	}
	return nil
}

// Resolved reports whether every discrepancy has an agreed decision.
func (p *Plan) Resolved() bool {
	for _, d := range p.Decisions {
		if d <= 0 {
			return false
		}
	}
	return true
}

// resolutionRules returns the resolution as rules, one per discrepancy,
// in report order.
func (p *Plan) resolutionRules() []rule.Rule {
	out := make([]rule.Rule, len(p.Decisions))
	for i, d := range p.Report.Discrepancies {
		out[i] = rule.Rule{Pred: d.Pred.Clone(), Decision: p.Decisions[i]}
	}
	return out
}

// referenceSemantics returns a policy with the intended final semantics:
// the resolution rules first (the regions of disagreement, now fixed),
// then firewall A (correct wherever the teams agreed).
func (p *Plan) referenceSemantics() (*rule.Policy, error) {
	rules := append(p.resolutionRules(), p.A.Rules...)
	return rule.NewPolicy(p.A.Schema, rules)
}

// Method1 generates the final firewall from the corrected FDD: shape A's
// and B's FDDs to semi-isomorphism, rewrite the terminals of A's shaped
// FDD according to the resolution, and run the structured-design generator
// on the result (Section 6.1).
func (p *Plan) Method1() (*rule.Policy, error) {
	return p.Method1Context(context.Background())
}

// Method1Context is Method1 with cancellation and tracing: the pipeline
// stages it runs poll ctx, and when ctx carries a trace the generation
// appears as a "resolve-generate" span over the construct/shape children.
func (p *Plan) Method1Context(ctx context.Context) (*rule.Policy, error) {
	if !p.Resolved() {
		return nil, fmt.Errorf("resolve: method 1: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-generate")
	defer sp.End()
	sp.SetAttr("method", "fdd")
	fa, err := fdd.ConstructContext(ctx, p.A)
	if err != nil {
		return nil, err
	}
	fb, err := fdd.ConstructContext(ctx, p.B)
	if err != nil {
		return nil, err
	}
	sa, sb, err := shape.MakeSemiIsomorphicContext(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	if err := p.correctTerminals(sa, sb); err != nil {
		return nil, err
	}
	out, err := gen.Generate(sa)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rules", out.Size())
	return out, nil
}

// correctTerminals walks the semi-isomorphic pair; wherever the terminals
// differ, the path region belongs to exactly one discrepancy row, whose
// agreed decision replaces sa's terminal. After this, sa and sb corrected
// the same way would be identical — the paper's observation in
// Section 6.1, Step 1.
func (p *Plan) correctTerminals(sa, sb *fdd.FDD) error {
	pred := rule.FullPredicate(sa.Schema)
	var walk func(a, b *fdd.Node) error
	walk = func(a, b *fdd.Node) error {
		if a.IsTerminal() {
			if a.Decision == b.Decision {
				return nil
			}
			idx := p.findRegion(pred)
			if idx < 0 {
				return fmt.Errorf("resolve: differing path %v matches no discrepancy row", pred)
			}
			a.Decision = p.Decisions[idx]
			return nil
		}
		saved := pred[a.Field]
		defer func() { pred[a.Field] = saved }()
		for i := range a.Edges {
			pred[a.Field] = a.Edges[i].Label
			if err := walk(a.Edges[i].To, b.Edges[i].To); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(sa.Root, sb.Root)
}

// findRegion returns the index of the discrepancy row containing the path
// region, or -1. Merged rows are unions of whole path regions, so
// overlap implies containment.
func (p *Plan) findRegion(pathPred rule.Predicate) int {
	for i, d := range p.Report.Discrepancies {
		contained := true
		for f := range pathPred {
			if !d.Pred[f].ContainsSet(pathPred[f]) {
				contained = false
				break
			}
		}
		if contained {
			return i
		}
	}
	return -1
}

// CorrectedFDDs shapes both firewalls' FDDs and applies the resolution to
// the terminals of each. The paper's observation in Section 6.1 is that
// after correction the two semi-isomorphic diagrams become exactly the
// same diagram; callers can verify that with fdd/shape and use either one.
func (p *Plan) CorrectedFDDs() (*fdd.FDD, *fdd.FDD, error) {
	if !p.Resolved() {
		return nil, nil, fmt.Errorf("resolve: unresolved discrepancies remain")
	}
	fa, err := fdd.Construct(p.A)
	if err != nil {
		return nil, nil, err
	}
	fb, err := fdd.Construct(p.B)
	if err != nil {
		return nil, nil, err
	}
	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		return nil, nil, err
	}
	if err := p.correctTerminals(sa, sb); err != nil {
		return nil, nil, err
	}
	// Correct sb symmetrically: on differing paths its terminal gets the
	// same agreed decision sa's terminal just received.
	if err := p.correctTerminals(sb, sa); err != nil {
		return nil, nil, err
	}
	return sa, sb, nil
}

// Method2 builds the final firewall from one of the originals (Section
// 6.2): prepend the resolution rules on which that firewall decides
// incorrectly, then remove redundant rules. useA selects which original
// to start from.
func (p *Plan) Method2(useA bool) (*rule.Policy, error) {
	return p.Method2Context(context.Background(), useA)
}

// Method2Context is Method2 with cancellation and tracing (a
// "resolve-generate" span with method "a" or "b", the correction count
// and the redundancy search's candidate count, over the composed
// policy's construct span; the redundancy removal dominates its
// duration).
func (p *Plan) Method2Context(ctx context.Context, useA bool) (*rule.Policy, error) {
	if !p.Resolved() {
		return nil, fmt.Errorf("resolve: method 2: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-generate")
	defer sp.End()
	if useA {
		sp.SetAttr("method", "a")
	} else {
		sp.SetAttr("method", "b")
	}
	base := p.B
	wrongDecision := func(i int) rule.Decision { return p.Report.Discrepancies[i].B }
	if useA {
		base = p.A
		wrongDecision = func(i int) rule.Decision { return p.Report.Discrepancies[i].A }
	}
	var corrections []rule.Rule
	for i, d := range p.Report.Discrepancies {
		if wrongDecision(i) != p.Decisions[i] {
			corrections = append(corrections, rule.Rule{Pred: d.Pred.Clone(), Decision: p.Decisions[i]})
		}
	}
	sp.SetAttr("corrections", len(corrections))
	composed, err := rule.NewPolicy(base.Schema, append(corrections, base.Rules...))
	if err != nil {
		return nil, err
	}
	f, eff, err := fdd.ConstructEffectiveContext(ctx, composed)
	if err != nil {
		return nil, err
	}
	compacted, _, err := redundancy.RemoveAllContext(ctx, composed, f, eff)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rules", compacted.Size())
	return compacted, nil
}

// Verify checks that the candidate firewall implements exactly the
// resolved semantics: the agreed decision on every discrepancy region and
// the (already agreeing) original behaviour everywhere else.
func (p *Plan) Verify(candidate *rule.Policy) error {
	return p.VerifyContext(context.Background(), candidate)
}

// VerifyContext is Verify with cancellation and tracing (a
// "resolve-verify" span wrapping the reference-vs-candidate diff, which
// is the same direct walk the engine serves diffs with).
func (p *Plan) VerifyContext(ctx context.Context, candidate *rule.Policy) error {
	if !p.Resolved() {
		return fmt.Errorf("resolve: verify: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-verify")
	defer sp.End()
	ref, err := p.referenceSemantics()
	if err != nil {
		return err
	}
	fr, err := fdd.ConstructContext(ctx, ref)
	if err != nil {
		return err
	}
	fc, err := fdd.ConstructContext(ctx, candidate)
	if err != nil {
		return err
	}
	r, err := compare.DiffFDDsDirectContext(ctx, fr, fc)
	if err != nil {
		return err
	}
	eq := r.Equivalent()
	sp.SetAttr("equivalent", eq)
	if !eq {
		return fmt.Errorf("resolve: candidate firewall deviates from the resolved semantics")
	}
	return nil
}
