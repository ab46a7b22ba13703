package compare

import (
	"math/rand"
	"testing"

	"diversefw/internal/bdd"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// TestCrossValidateAgainstBDD checks both FDD diff walks — the lockstep
// pipeline and the direct product walk — against the completely
// independent BDD implementation (different data structure, different
// algorithms): on random policy pairs over a small schema, the set of
// disagreement packets computed by each must be identical, checked
// exhaustively.
func TestCrossValidateAgainstBDD(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(61))
	schema := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 15), Kind: field.KindInt},
	)
	randPolicy := func() *rule.Policy {
		n := 1 + r.Intn(6)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			lo1 := uint64(r.Intn(32))
			hi1 := lo1 + uint64(r.Intn(32-int(lo1)))
			lo2 := uint64(r.Intn(16))
			hi2 := lo2 + uint64(r.Intn(16-int(lo2)))
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, rule.Rule{
				Pred:     rule.Predicate{interval.SetOf(lo1, hi1), interval.SetOf(lo2, hi2)},
				Decision: d,
			})
		}
		rules = append(rules, rule.CatchAll(schema, rule.Discard))
		return rule.MustPolicy(schema, rules)
	}

	for trial := 0; trial < 25; trial++ {
		pa, pb := randPolicy(), randPolicy()

		lock, err := Diff(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := fdd.Construct(pa)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fdd.Construct(pb)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := DiffFDDsDirect(fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		enc, res, err := bdd.DiffPolicies(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			walk   string
			report *Report
		}{{"lockstep", lock}, {"direct", direct}} {
			walk, report := w.walk, w.report
			// Exhaustive agreement over the whole (small) packet space, plus
			// an exact disagreement count comparison.
			count := 0
			for x := uint64(0); x <= 31; x++ {
				for y := uint64(0); y <= 15; y++ {
					pkt := rule.Packet{x, y}
					inFDD := false
					for _, d := range report.Discrepancies {
						if d.Pred.Matches(pkt) {
							inFDD = true
							break
						}
					}
					assign := make([]bool, enc.M.NumVars())
					bits := enc.FieldBits(0)
					for i, v := range bits {
						assign[v] = x>>uint(len(bits)-1-i)&1 == 1
					}
					bits = enc.FieldBits(1)
					for i, v := range bits {
						assign[v] = y>>uint(len(bits)-1-i)&1 == 1
					}
					inBDD := enc.M.Eval(res.Diff, assign)
					if inFDD != inBDD {
						t.Fatalf("trial %d: packet %v: FDD %s walk says %v, BDD says %v", trial, pkt, walk, inFDD, inBDD)
					}
					if inFDD {
						count++
					}
				}
			}

			// The discrepancy rows are disjoint, so their sizes add up to the
			// exact disagreement count; the BDD's SatFraction gives the same
			// number independently.
			var rowSum uint64
			for _, d := range report.Discrepancies {
				size := uint64(1)
				for _, s := range d.Pred {
					size *= s.Count()
				}
				rowSum += size
			}
			if rowSum != uint64(count) {
				t.Fatalf("trial %d: %s walk's row sizes add to %d, exhaustive count %d", trial, walk, rowSum, count)
			}
			bddCount := res.Fraction * float64(32*16)
			if int(bddCount+0.5) != count {
				t.Fatalf("trial %d: BDD fraction gives %v packets, exhaustive count %d", trial, bddCount, count)
			}
		}
	}
}
