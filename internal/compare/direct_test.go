package compare

import (
	"context"
	"reflect"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// directCorpus is the pair corpus the direct walk is held to lockstep
// on: the paper's Team A/B example (Table 3), synth.Synthetic pairs, and
// RealLife references against InjectErrors redesigns (Section 8.1),
// each family at 40 sizes from 20 to 449 rules.
func directCorpus() [][2]*rule.Policy {
	pairs := [][2]*rule.Policy{{paper.TeamA(), paper.TeamB()}}
	for k := 0; k < 40; k++ {
		n := 20 + 11*k
		pairs = append(pairs, [2]*rule.Policy{
			synth.Synthetic(synth.Config{Rules: n, Seed: int64(2*k + 1)}),
			synth.Synthetic(synth.Config{Rules: n, Seed: int64(2*k + 2)}),
		})
		ref := synth.RealLife(n, int64(100+k))
		faulty, _ := synth.InjectErrors(ref, synth.ErrorConfig{
			OrderingErrors: 1 + k%5, MissingRules: 1 + k%3, Seed: int64(k + 7)})
		pairs = append(pairs, [2]*rule.Policy{ref, faulty})
	}
	return pairs
}

// TestDirectDiffMatchesLockstep holds the direct walk to the lockstep
// pipeline row for row: the same merged discrepancy rows in the same
// order, so serving the direct walk keeps every row number the paper's
// algorithm would hand out.
func TestDirectDiffMatchesLockstep(t *testing.T) {
	t.Parallel()
	for i, pair := range directCorpus() {
		fa, err := fdd.Construct(pair[0])
		if err != nil {
			t.Fatalf("pair %d: construct a: %v", i, err)
		}
		fb, err := fdd.Construct(pair[1])
		if err != nil {
			t.Fatalf("pair %d: construct b: %v", i, err)
		}
		lock, err := DiffFDDsContext(context.Background(), fa, fb)
		if err != nil {
			t.Fatalf("pair %d: lockstep: %v", i, err)
		}
		direct, err := DiffFDDsDirect(fa, fb)
		if err != nil {
			t.Fatalf("pair %d: direct: %v", i, err)
		}
		if !reflect.DeepEqual(lock.Discrepancies, direct.Discrepancies) {
			t.Fatalf("pair %d (%d vs %d rules): direct rows differ from lockstep's (%d vs %d rows)",
				i, pair[0].Size(), pair[1].Size(), len(direct.Discrepancies), len(lock.Discrepancies))
		}
		if direct.RawPaths < len(direct.Discrepancies) {
			t.Fatalf("pair %d: RawPaths %d < merged rows %d", i, direct.RawPaths, len(direct.Discrepancies))
		}
	}
}

func TestDirectDiffSharedSubgraphShortCircuit(t *testing.T) {
	// A diagram diffed against itself is all pointer-shared: one
	// short-circuit at the root, nothing walked.
	p := synth.Synthetic(synth.Config{Rules: 80, Seed: 5})
	f, err := fdd.Construct(p)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	r, err := DiffFDDsDirect(f, f)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if !r.Equivalent() {
		t.Fatalf("self-diff found %d discrepancies", len(r.Discrepancies))
	}
	if r.PathsCompared != 0 {
		t.Fatalf("self-diff compared %d terminal pairs; pointer identity should short-circuit", r.PathsCompared)
	}
}

func TestDirectDiffSchemaMismatch(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 10, Seed: 1})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	other := &fdd.FDD{Schema: field.PaperExample(), Root: fa.Root}
	if _, err := DiffFDDsDirect(fa, other); err == nil {
		t.Fatalf("direct diff accepted mismatched schemas")
	}
}

func TestDirectDiffCancelAndBudget(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 200, Seed: 31})
	pb := synth.Synthetic(synth.Config{Rules: 200, Seed: 32})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatalf("construct a: %v", err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatalf("construct b: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiffFDDsDirectContext(ctx, fa, fb); err == nil {
		t.Fatalf("direct diff ignored a canceled context")
	}
	bctx := guard.WithBudget(context.Background(), guard.NewBudget(guard.Limits{MaxFDDNodes: 1}))
	_, err = DiffFDDsDirectContext(bctx, fa, fb)
	if err == nil {
		t.Fatalf("direct diff ignored an exhausted budget")
	}
}
