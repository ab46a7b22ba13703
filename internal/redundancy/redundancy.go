// Package redundancy implements complete redundancy detection and removal
// for firewall policies — the substrate from the paper's reference [19]
// ("Complete Redundancy Detection in Firewalls", Liu & Gouda) that
// Section 6's resolution Method 2 runs after prepending correction rules.
//
// A rule is redundant iff removing it leaves the policy's semantics
// unchanged. Two mechanisms are provided:
//
//   - Effective reports upward redundancy cheaply: a rule no packet
//     reaches as its first match contributes nothing, detected as a free
//     byproduct of FDD construction.
//   - IsRedundant is the complete semantic check (covering downward
//     redundancy too — a rule whose packets would get the same decision
//     from later rules): the policy with and without the rule are compared
//     with the FDD equivalence pipeline, which is exact.
package redundancy

import (
	"context"
	"errors"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// Effective reports, for each rule, whether some packet's first match is
// that rule. effective[i] == false means rule i is upward redundant and
// always safe to delete. The policy must be comprehensive.
func Effective(p *rule.Policy) ([]bool, error) {
	_, eff, err := fdd.ConstructEffective(p)
	if err != nil {
		return nil, err
	}
	return eff, nil
}

// IsRedundant reports whether rule i can be deleted without changing the
// policy's semantics. This is the complete check: it detects both upward
// redundancy (rule i is never a first match) and downward redundancy
// (packets whose first match is rule i would get the same decision from a
// later rule).
func IsRedundant(p *rule.Policy, i int) (bool, error) {
	if i < 0 || i >= p.Size() {
		return false, fmt.Errorf("redundancy: rule index %d out of range [0, %d)", i, p.Size())
	}
	without, err := p.DeleteRule(i)
	if err != nil {
		return false, err
	}
	if _, cerr := fdd.Construct(without); cerr != nil {
		// Deleting rule i leaves some packet uncovered, so rule i is the
		// sole cover of that packet: not redundant.
		return false, nil
	}
	return compare.Equivalent(p, without)
}

// RemoveAll returns an equivalent policy with no redundant rules, plus the
// original indices of the removed rules in removal order. It first drops
// all upward-redundant rules in one FDD pass, then repeats the complete
// semantic check to a fixpoint (removing one rule can expose or conceal
// the redundancy of another, e.g. two identical rules are each redundant
// but only one may go).
func RemoveAll(p *rule.Policy) (*rule.Policy, []int, error) {
	f, eff, err := fdd.ConstructEffective(p)
	if err != nil {
		return nil, nil, err
	}
	return RemoveAllContext(context.Background(), p, f, eff)
}

// RemoveAllContext is RemoveAll for a policy the caller has already
// constructed: f and effective are fdd.ConstructEffectiveContext's results
// for p. Every candidate's construction and comparison polls ctx, so a
// canceled or expired context ends the search with ctx's error rather
// than a shorter removal list. Candidates record no spans, which would
// outnumber the rest of a trace; their count becomes the "candidates"
// attribute of ctx's active span.
func RemoveAllContext(ctx context.Context, p *rule.Policy, f *fdd.FDD, effective []bool) (*rule.Policy, []int, error) {
	// Track original indices through removals.
	origIdx := make([]int, p.Size())
	for i := range origIdx {
		origIdx[i] = i
	}
	var removed []int
	cur := p.Clone()

	drop := func(i int) error {
		next, err := cur.DeleteRule(i)
		if err != nil {
			return err
		}
		removed = append(removed, origIdx[i])
		origIdx = append(origIdx[:i], origIdx[i+1:]...)
		cur = next
		return nil
	}

	// Pass 1: upward redundancy, cheap and batched.
	for i := len(effective) - 1; i >= 0; i-- {
		if !effective[i] {
			if err := drop(i); err != nil {
				return nil, nil, err
			}
		}
	}

	// Pass 2: complete semantic check to a fixpoint. Two optimizations
	// keep this O(n) FDD builds per pass instead of O(n) *pairs*: the
	// current policy's FDD is never rebuilt (pass 1 left the semantics,
	// so f still decides cur, and an accepted candidate's FDD decides the
	// policy it leaves), and rules that cannot possibly be downward
	// redundant are skipped (a rule's first-match region can only be
	// re-decided identically if some later rule with the same decision
	// overlaps it).
	curFDD := f
	candidates := 0
	defer func() { trace.Active(ctx).SetAttr("candidates", candidates) }()
	cctx := trace.Untraced(ctx)
	for again := true; again; {
		again = false
		for i := 0; i < cur.Size(); i++ {
			if !maybeDownwardRedundant(cur, i) {
				continue
			}
			candidates++
			without, err := cur.DeleteRule(i)
			if err != nil {
				return nil, nil, err
			}
			withoutFDD, err := fdd.ConstructContext(cctx, without)
			if errors.Is(err, fdd.ErrIncomplete) {
				continue // sole cover of some packet: not redundant
			}
			if err != nil {
				return nil, nil, err
			}
			report, err := compare.DiffFDDsContext(cctx, curFDD, withoutFDD)
			if err != nil {
				return nil, nil, err
			}
			if report.Equivalent() {
				if err := drop(i); err != nil {
					return nil, nil, err
				}
				curFDD = withoutFDD
				again = true
				i--
			}
		}
	}
	return cur, removed, nil
}

// maybeDownwardRedundant is the necessary condition for rule i to be
// removable: some packet whose first match is rule i must get the same
// decision from a later rule, so a later same-decision rule must overlap
// rule i. (Upward-redundant rules were already dropped in pass 1.)
func maybeDownwardRedundant(p *rule.Policy, i int) bool {
	ri := p.Rules[i]
	for j := i + 1; j < p.Size(); j++ {
		rj := p.Rules[j]
		if rj.Decision != ri.Decision {
			continue
		}
		overlaps := true
		for f := range ri.Pred {
			if !ri.Pred[f].Overlaps(rj.Pred[f]) {
				overlaps = false
				break
			}
		}
		if overlaps {
			return true
		}
	}
	return false
}
