package compare

import (
	"context"
	"fmt"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/trace"
)

// DiffFDDsDirect compares two reduced FDDs by a memoized product walk,
// without shaping. See DiffFDDsDirectContext.
func DiffFDDsDirect(fa, fb *fdd.FDD) (*Report, error) {
	return DiffFDDsDirectContext(context.Background(), fa, fb)
}

// DiffFDDsDirectContext computes the functional discrepancies between fa
// and fb by walking their product directly: at each node pair it splits
// on the smaller labeled field, intersecting edge labels pairwise, and
// memoizes per (a, b) node pair. Unlike the shape-then-lockstep pipeline
// it never unrolls the reduced DAGs into semi-isomorphic trees, so its
// cost is bounded by the product of the DAG sizes — not the path counts.
//
// Two properties make it the fast path for change-impact analysis:
//
//   - pointer-identical subgraphs short-circuit to "agree" in O(1). When
//     both diagrams were reduced in the same node store (fdd.Builder
//     families: a base FDD and one resumed after an edit), everything the
//     edit did not touch is shared and the walk only descends into the
//     changed region.
//   - the memo is keyed by node pair, so repeated shared substructure is
//     compared once.
//
// It is the diff every served comparison runs (see internal/engine);
// the lockstep pipeline stays as the paper's reproduction and the test
// oracle. Its report counts its own work: PathsCompared is the node
// pairs the walk computed (memo misses), not decision-path pairs, and
// RawPaths is the differing rows of the difference diagram before
// merging. Timing fills only the Compare phase. The walk's "compare"
// span carries nodePairs, memoHits, sharedHits, rawPaths and
// discrepancies.
func DiffFDDsDirectContext(ctx context.Context, fa, fb *fdd.FDD) (*Report, error) {
	if !fa.Schema.Equal(fb.Schema) {
		return nil, fmt.Errorf("compare: schemas differ")
	}
	if err := checkFDDDecisionRange(fa); err != nil {
		return nil, err
	}
	if err := checkFDDDecisionRange(fb); err != nil {
		return nil, err
	}
	_, sp := trace.Start(ctx, "compare")
	defer sp.End()
	start := time.Now()
	w := &directWalker{
		in:     fdd.NewInterner(),
		fulls:  fullSets(fa.Schema),
		memo:   make(map[[2]*fdd.Node]*fdd.Node),
		ctx:    ctx,
		budget: cancelCheckEvery,
		work:   guard.FromContext(ctx),
	}
	root := w.walk(fa.Root, fb.Root)
	if w.err == nil && w.work != nil && w.pending > 0 {
		if err := w.work.AddNodes(int64(w.pending)); err != nil {
			w.err = err
		}
	}
	if w.err != nil {
		return nil, fmt.Errorf("compare: aborted: %w", w.err)
	}
	diff := &fdd.FDD{Schema: fa.Schema, Root: root}
	report := &Report{PathsCompared: w.pairs}
	for _, r := range diff.Rules() {
		da, db := r.Decision>>pairShift, r.Decision&(1<<pairShift-1)
		if da == db {
			continue
		}
		report.Discrepancies = append(report.Discrepancies, Discrepancy{Pred: r.Pred, A: da, B: db})
	}
	report.RawPaths = len(report.Discrepancies)
	report.Discrepancies = MergeDiscrepancies(fa.Schema.NumFields(), report.Discrepancies)
	report.Timing = Timing{Compare: time.Since(start)}
	if sp != nil {
		sp.SetAttr("nodePairs", w.pairs)
		sp.SetAttr("memoHits", w.memoHits)
		sp.SetAttr("sharedHits", w.shared)
		sp.SetAttr("rawPaths", report.RawPaths)
		sp.SetAttr("discrepancies", len(report.Discrepancies))
	}
	return report, nil
}

// directWalker carries one product walk's memo, node store, and counters.
type directWalker struct {
	in       *fdd.Interner
	fulls    []interval.Set
	memo     map[[2]*fdd.Node]*fdd.Node
	pairs    int // node pairs computed (memo misses)
	memoHits int // node pairs served from the memo
	shared   int // pointer-identity short-circuits

	ctx     context.Context
	budget  int // countdown to the next ctx poll / budget flush
	work    *guard.Budget
	pending int
	err     error // latched abort (ctx or budget); diagram is then garbage
}

// agreeTerminal is the single terminal every agreeing region collapses
// to. Any pair with equal halves works — rows with da == db are dropped
// before reporting — and funnelling all agreement into one terminal lets
// the hash-consing merge agreeing regions regardless of which decision
// they agree on.
const agreeTerminal = 1<<pairShift | 1

// stop polls ctx and flushes budget charges once per cancelCheckEvery
// visits, latching the first error.
func (w *directWalker) stop() bool {
	if w.err != nil {
		return true
	}
	w.budget--
	if w.budget > 0 {
		return false
	}
	w.budget = cancelCheckEvery
	if w.work != nil && w.pending > 0 {
		n := w.pending
		w.pending = 0
		if err := w.work.AddNodes(int64(n)); err != nil {
			w.err = err
			return true
		}
	}
	if err := w.ctx.Err(); err != nil {
		w.err = err
		return true
	}
	return false
}

// walk returns the canonical difference-diagram node for the product of
// subgraphs a and b.
func (w *directWalker) walk(a, b *fdd.Node) *fdd.Node {
	if a == b {
		// Shared subgraph: both sides decide every packet below here
		// identically, whatever those decisions are.
		w.shared++
		return w.in.CanonicalTerminal(agreeTerminal)
	}
	if w.stop() {
		return w.in.CanonicalTerminal(agreeTerminal)
	}
	key := [2]*fdd.Node{a, b}
	if c, ok := w.memo[key]; ok {
		w.memoHits++
		return c
	}
	w.pairs++
	w.pending++
	var out *fdd.Node
	if a.IsTerminal() && b.IsTerminal() {
		if a.Decision == b.Decision {
			out = w.in.CanonicalTerminal(agreeTerminal)
		} else {
			out = w.in.CanonicalTerminal(a.Decision<<pairShift | b.Decision)
		}
	} else {
		// Branch on the smaller labeled field. A terminal (or a node
		// labeled with a later field — reduction elides full-domain
		// single-edge nodes) covers the whole domain of every earlier
		// field implicitly, so it pairs against each of the other node's
		// edges unchanged.
		f := a.Field
		if a.IsTerminal() || (!b.IsTerminal() && b.Field < f) {
			f = b.Field
		}
		aBranches := !a.IsTerminal() && a.Field == f
		bBranches := !b.IsTerminal() && b.Field == f
		var edges []*fdd.Edge
		switch {
		case aBranches && bBranches:
			for _, ea := range a.Edges {
				for _, eb := range b.Edges {
					common := ea.Label.Intersect(eb.Label)
					if common.Empty() {
						continue
					}
					edges = append(edges, &fdd.Edge{Label: common, To: w.walk(ea.To, eb.To)})
				}
			}
		case aBranches:
			for _, ea := range a.Edges {
				edges = append(edges, &fdd.Edge{Label: ea.Label, To: w.walk(ea.To, b)})
			}
		default:
			for _, eb := range b.Edges {
				edges = append(edges, &fdd.Edge{Label: eb.Label, To: w.walk(a, eb.To)})
			}
		}
		out = w.in.Canonicalize(f, edges, w.fulls[f])
	}
	w.memo[key] = out
	return out
}
