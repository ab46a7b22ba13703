package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"diversefw/internal/api"
	"diversefw/internal/rule"
)

// The oracle checks responses against first-match evaluation
// (rule.Policy.Decide) of the benchmark's own copies of the policies. It
// never calls the decision-diagram code under test; it only parses the
// value-set notation of the reports back into sets. Checks are sampled:
// a wrong answer is caught with high probability, a reported error is
// always a real one (each comes with a refuting packet).

// Sample sizes per response.
const (
	samplesPerRow    = 3   // packets inside each reported region
	missSamples      = 300 // packets searched for an unreported disagreement
	shadowSamples    = 64  // packets inside a rule reported never-first-match
	redundantSamples = 64  // random packets inside a rule reported redundant
)

// checkResponse dispatches on the workload kind. A nil error means the
// response survived every check.
func checkResponse(kind string, req *Request, body []byte, rng *rand.Rand) error {
	switch kind {
	case kindDiff:
		var resp api.DiffResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode diff response: %w", err)
		}
		return checkDiff(req.A, req.B, &resp, rng)
	case kindImpact:
		var resp api.ImpactResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode impact response: %w", err)
		}
		return checkImpact(req.A, req.B, &resp, rng)
	case kindAnalyze:
		var resp api.AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode analyze response: %w", err)
		}
		return checkAnalyze(req.A, &resp, rng)
	default:
		return fmt.Errorf("no oracle for kind %q", kind)
	}
}

// region parses a reported discrepancy's field map into a predicate.
func region(d api.Discrepancy) (rule.Predicate, error) {
	pred := make(rule.Predicate, schema.NumFields())
	for fi := range pred {
		f := schema.Field(fi)
		txt, ok := d.Fields[f.Name]
		if !ok {
			return nil, fmt.Errorf("region lacks field %s", f.Name)
		}
		s, err := rule.ParseValueSet(f, txt)
		if err != nil {
			return nil, fmt.Errorf("region field %s: %w", f.Name, err)
		}
		pred[fi] = s
	}
	if len(d.Fields) != schema.NumFields() {
		return nil, fmt.Errorf("region has %d fields, schema %d", len(d.Fields), schema.NumFields())
	}
	return pred, nil
}

// inside draws a packet satisfying pred: per field, one of its intervals,
// then its low end, its high end, or a uniform value in between.
func inside(pred rule.Predicate, rng *rand.Rand) rule.Packet {
	pkt := make(rule.Packet, len(pred))
	for fi, s := range pred {
		ivs := s.Intervals()
		iv := ivs[rng.Intn(len(ivs))]
		switch rng.Intn(4) {
		case 0:
			pkt[fi] = iv.Lo
		case 1:
			pkt[fi] = iv.Hi
		default:
			pkt[fi] = iv.Lo + uint64(rng.Int63n(int64(iv.Hi-iv.Lo)+1))
		}
	}
	return pkt
}

// lowCorner is the packet of each field's minimum — the witness the
// impact report attributes rules with.
func lowCorner(pred rule.Predicate) rule.Packet {
	pkt := make(rule.Packet, len(pred))
	for fi, s := range pred {
		pkt[fi], _ = s.Min()
	}
	return pkt
}

// probe draws a packet likely to exercise the policies: most fall inside
// a random rule of one of them (real rules name few subnets and ports, so
// uniform packets would almost all hit the catch-all), the rest are
// uniform over the schema.
func probe(ps []*rule.Policy, rng *rand.Rand) rule.Packet {
	if rng.Intn(5) > 0 {
		p := ps[rng.Intn(len(ps))]
		return inside(p.Rules[rng.Intn(p.Size())].Pred, rng)
	}
	return inside(rule.FullPredicate(schema), rng)
}

// decide evaluates first-match, failing on a packet no rule matches (the
// generated policies are comprehensive, so that is a benchmark bug).
func decide(p *rule.Policy, pkt rule.Packet) (rule.Decision, int, error) {
	d, i, ok := p.Decide(pkt)
	if !ok {
		return 0, 0, fmt.Errorf("no rule matches packet %v", pkt)
	}
	return d, i, nil
}

// checkRegions verifies reported disagreement regions between x and y:
// sampled packets inside each region get the reported decisions, and
// sampled packets on which the policies disagree lie in some region.
func checkRegions(x, y *rule.Policy, rows []api.Discrepancy, rng *rand.Rand) ([]rule.Predicate, error) {
	preds := make([]rule.Predicate, len(rows))
	for r, row := range rows {
		pred, err := region(row)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", r+1, err)
		}
		if row.A == row.B {
			return nil, fmt.Errorf("row %d reports equal decisions %q", r+1, row.A)
		}
		preds[r] = pred
		for k := 0; k < samplesPerRow; k++ {
			pkt := inside(pred, rng)
			if k == 0 {
				pkt = lowCorner(pred)
			}
			dx, _, err := decide(x, pkt)
			if err != nil {
				return nil, err
			}
			dy, _, err := decide(y, pkt)
			if err != nil {
				return nil, err
			}
			if dx.String() != row.A || dy.String() != row.B {
				return nil, fmt.Errorf("row %d (%s vs %s): packet %v gets %s vs %s",
					r+1, row.A, row.B, pkt, dx, dy)
			}
		}
	}
	ps := []*rule.Policy{x, y}
	for k := 0; k < missSamples; k++ {
		pkt := probe(ps, rng)
		dx, _, err := decide(x, pkt)
		if err != nil {
			return nil, err
		}
		dy, _, err := decide(y, pkt)
		if err != nil {
			return nil, err
		}
		if dx != dy && !inAny(preds, pkt) {
			return nil, fmt.Errorf("unreported disagreement: packet %v gets %s vs %s", pkt, dx, dy)
		}
	}
	return preds, nil
}

func inAny(preds []rule.Predicate, pkt rule.Packet) bool {
	for _, p := range preds {
		if p.Matches(pkt) {
			return true
		}
	}
	return false
}

// checkDiff verifies a /v1/diff response for the pair (a, b).
func checkDiff(a, b *rule.Policy, resp *api.DiffResponse, rng *rand.Rand) error {
	if resp.Equivalent != (len(resp.Discrepancies) == 0) {
		return fmt.Errorf("equivalent=%v with %d rows", resp.Equivalent, len(resp.Discrepancies))
	}
	_, err := checkRegions(a, b, resp.Discrepancies, rng)
	return err
}

// checkImpact verifies a /v1/impact response: a noImpact claim is
// refuted by any sampled packet whose decision changed; otherwise every
// region must hold the reported old and new decisions, and the
// attributed rules must be the first matches of the region's low corner.
func checkImpact(before, after *rule.Policy, resp *api.ImpactResponse, rng *rand.Rand) error {
	if resp.NoImpact != (len(resp.Attributions) == 0) {
		return fmt.Errorf("noImpact=%v with %d attributions", resp.NoImpact, len(resp.Attributions))
	}
	rows := make([]api.Discrepancy, len(resp.Attributions))
	for i, at := range resp.Attributions {
		rows[i] = at.Region
	}
	preds, err := checkRegions(before, after, rows, rng)
	if err != nil {
		if resp.NoImpact {
			return fmt.Errorf("noImpact refuted: %w", err)
		}
		return err
	}
	for i, at := range resp.Attributions {
		w := lowCorner(preds[i])
		_, bi, err := decide(before, w)
		if err != nil {
			return err
		}
		_, ai, err := decide(after, w)
		if err != nil {
			return err
		}
		if bi+1 != at.BeforeRule || ai+1 != at.AfterRule {
			return fmt.Errorf("attribution %d: first matches of %v are rules %d/%d, reported %d/%d",
				i+1, w, bi+1, ai+1, at.BeforeRule, at.AfterRule)
		}
	}
	return nil
}

// checkAnalyze verifies the exact findings of a /v1/analyze response: no
// packet inside a never-first-match rule may first-match it, and
// deleting the redundant rules, in the order reported, must leave every
// sampled decision unchanged.
func checkAnalyze(p *rule.Policy, resp *api.AnalyzeResponse, rng *rand.Rand) error {
	if resp.Complexity.Rules != p.Size() {
		return fmt.Errorf("complexity reports %d rules, policy has %d", resp.Complexity.Rules, p.Size())
	}
	var redundant []int
	for _, f := range resp.Findings {
		if len(f.Rules) == 0 || f.Rules[0] < 1 || f.Rules[len(f.Rules)-1] > p.Size() {
			return fmt.Errorf("finding %s names rules %v outside 1..%d", f.Kind, f.Rules, p.Size())
		}
		switch f.Kind {
		case "never-first-match":
			r := f.Rules[0] - 1
			for k := 0; k < shadowSamples; k++ {
				pkt := inside(p.Rules[r].Pred, rng)
				if _, i, err := decide(p, pkt); err != nil {
					return err
				} else if i == r {
					return fmt.Errorf("rule %d reported never-first-match, but packet %v first-matches it", r+1, pkt)
				}
			}
		case "redundant":
			redundant = append(redundant, f.Rules[0]-1)
		}
	}
	// Delete in the reported order, tracking how earlier deletions shift
	// later indices.
	cur := p
	gone := map[int]bool{}
	for _, r := range redundant {
		if gone[r] {
			return fmt.Errorf("rule %d reported redundant twice", r+1)
		}
		at := r
		for g := range gone {
			if g < r {
				at--
			}
		}
		next, err := cur.DeleteRule(at)
		if err != nil {
			return err
		}
		gone[r] = true
		cur = next
		for _, pkt := range deletionProbes(p, r, rng) {
			want, _, err := decide(p, pkt)
			if err != nil {
				return err
			}
			got, _, ok := cur.Decide(pkt)
			if !ok || got != want {
				return fmt.Errorf("rule %d reported redundant, but deleting it changes packet %v from %s", r+1, pkt, want)
			}
		}
	}
	return nil
}

// deletionProbes returns packets that can tell whether deleting rule r
// of p changes a decision. Only packets inside rule r can change, and
// they change where a later rule takes them over, so the probes lie in
// the overlap of rule r with each later rule (its low corner and a
// random point), plus random points of rule r.
func deletionProbes(p *rule.Policy, r int, rng *rand.Rand) []rule.Packet {
	pred := p.Rules[r].Pred
	var out []rule.Packet
	for j := r + 1; j < p.Size(); j++ {
		overlap := make(rule.Predicate, len(pred))
		for fi := range pred {
			overlap[fi] = pred[fi].Intersect(p.Rules[j].Pred[fi])
		}
		if !overlap.Empty() {
			out = append(out, lowCorner(overlap), inside(overlap, rng))
		}
	}
	for k := 0; k < redundantSamples; k++ {
		out = append(out, inside(pred, rng))
	}
	return out
}
