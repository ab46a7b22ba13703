// Package compare implements the paper's comparison algorithm (Section 5)
// and the full three-phase discrepancy pipeline: construction (package
// fdd), shaping (package shape), and the lockstep comparison of two
// semi-isomorphic FDDs.
//
// The output is the set of all functional discrepancies between two
// firewalls: regions of the packet space, written as rule-like predicates,
// on which the two firewalls reach different decisions. Because each
// decision path of a semi-isomorphic pair corresponds to its companion
// path, collecting the paths whose terminal decisions differ finds every
// discrepancy — no sampling, no false negatives.
//
// The package has two diff walks over constructed FDDs. The
// shape-then-lockstep pipeline (Diff, DiffFDDs, CompareSemiIsomorphic)
// is the paper's algorithm: the reproduction experiments and the tests'
// oracle run it. The memoized product walk (DiffFDDsDirect) needs no
// shaping, and its merged rows match lockstep's row for row on the
// corpus TestDirectDiffMatchesLockstep checks; it is the only diff the
// serving path (internal/engine) runs.
package compare

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/trace"
)

// Discrepancy is one functional discrepancy (one row of the paper's
// Table 3): every packet matching Pred gets decision A from the first
// firewall and decision B from the second, with A != B.
type Discrepancy struct {
	Pred rule.Predicate
	A, B rule.Decision
}

// Report is the result of comparing two firewalls.
type Report struct {
	// Discrepancies lists every region of disagreement, merged into
	// human-readable rows (regions identical in all but one field are
	// coalesced). Empty means the firewalls are equivalent.
	Discrepancies []Discrepancy
	// RawPaths is the number of differing rows before merging — the
	// comparison walk's direct output size. For the lockstep walk these
	// are the differing decision-path pairs; for the direct walk
	// (DiffFDDsDirect), the differing paths of its difference diagram.
	RawPaths int
	// PathsCompared is the comparison walk's work: the decision-path
	// pairs the lockstep walk visited, or the node pairs the direct walk
	// computed (memo misses).
	PathsCompared int
	// Timing breaks the pipeline into the paper's three phases.
	Timing Timing
}

// Timing holds per-phase wall-clock durations (the series plotted in the
// paper's Figs. 12 and 13).
type Timing struct {
	Construct time.Duration
	Shape     time.Duration
	Compare   time.Duration
}

// Total returns the end-to-end duration.
func (t Timing) Total() time.Duration { return t.Construct + t.Shape + t.Compare }

// Equivalent reports whether the report found no discrepancies.
func (r *Report) Equivalent() bool { return len(r.Discrepancies) == 0 }

// Diff runs the full pipeline on two policies over the same schema and
// returns all functional discrepancies between them.
func Diff(pa, pb *rule.Policy) (*Report, error) {
	return DiffContext(context.Background(), pa, pb)
}

// DiffContext is Diff with cancellation: construction, shaping, and the
// lockstep comparison all poll ctx and return ctx.Err() (wrapped) as
// soon as it is canceled or past its deadline, so an abandoned HTTP
// request or a timed-out job stops burning CPU mid-pipeline.
func DiffContext(ctx context.Context, pa, pb *rule.Policy) (*Report, error) {
	if !pa.Schema.Equal(pb.Schema) {
		return nil, fmt.Errorf("compare: schemas differ")
	}
	if err := checkDecisionRange(pa); err != nil {
		return nil, err
	}
	if err := checkDecisionRange(pb); err != nil {
		return nil, err
	}
	start := time.Now()
	// The two constructions are independent (each gets its own node
	// store), so they run concurrently.
	var fb *fdd.FDD
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		fb, errB = fdd.ConstructContext(ctx, pb)
	}()
	fa, err := fdd.ConstructContext(ctx, pa)
	<-done
	if err != nil {
		return nil, fmt.Errorf("compare: first policy: %w", err)
	}
	if errB != nil {
		return nil, fmt.Errorf("compare: second policy: %w", errB)
	}
	tConstruct := time.Since(start)

	start = time.Now()
	sa, sb, err := shape.MakeSemiIsomorphicContext(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	tShape := time.Since(start)

	start = time.Now()
	report, err := CompareSemiIsomorphicContext(ctx, sa, sb)
	if err != nil {
		return nil, err
	}
	report.Timing = Timing{Construct: tConstruct, Shape: tShape, Compare: time.Since(start)}
	return report, nil
}

// DiffFDDsContext runs shaping and comparison on two already-constructed
// FDDs, with cancellation (see DiffContext). Useful when one version was
// designed directly as an FDD (Section 7.2), and for callers that hold
// constructed FDDs: shaping deep-copies its inputs, so fa and fb come
// back untouched and can be reused across calls.
func DiffFDDsContext(ctx context.Context, fa, fb *fdd.FDD) (*Report, error) {
	if !fa.Schema.Equal(fb.Schema) {
		return nil, fmt.Errorf("compare: schemas differ")
	}
	if err := checkFDDDecisionRange(fa); err != nil {
		return nil, err
	}
	if err := checkFDDDecisionRange(fb); err != nil {
		return nil, err
	}
	start := time.Now()
	sa, sb, err := shape.MakeSemiIsomorphicContext(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	tShape := time.Since(start)

	start = time.Now()
	report, err := CompareSemiIsomorphicContext(ctx, sa, sb)
	if err != nil {
		return nil, err
	}
	report.Timing = Timing{Shape: tShape, Compare: time.Since(start)}
	return report, nil
}

// pairShift encodes a decision pair (a, b) into one terminal label of the
// difference diagram: a<<pairShift | b. Decisions are small positive ints.
const pairShift = 20

// checkDecisionRange rejects decision values too large for the pair
// encoding (no real decision set comes close to 2^20 values).
func checkDecisionRange(p *rule.Policy) error {
	for i, r := range p.Rules {
		if r.Decision >= 1<<pairShift {
			return fmt.Errorf("compare: rule %d decision %d exceeds the supported range (< %d)",
				i, int(r.Decision), 1<<pairShift)
		}
	}
	return nil
}

// checkFDDDecisionRange is checkDecisionRange for an already-constructed
// diagram: every terminal's decision must fit the pair encoding.
func checkFDDDecisionRange(f *fdd.FDD) error {
	seen := make(map[*fdd.Node]bool)
	var walk func(n *fdd.Node) error
	walk = func(n *fdd.Node) error {
		if seen[n] {
			return nil
		}
		seen[n] = true
		if n.IsTerminal() {
			if n.Decision >= 1<<pairShift {
				return fmt.Errorf("compare: decision %d exceeds the supported range (< %d)",
					int(n.Decision), 1<<pairShift)
			}
			return nil
		}
		for _, e := range n.Edges {
			if err := walk(e.To); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(f.Root)
}

// CompareSemiIsomorphic implements the comparison algorithm of Section 5:
// walk two semi-isomorphic FDDs in lockstep and collect every companion
// path pair with differing terminal decisions. The caller must pass
// diagrams produced by shape.MakeSemiIsomorphic (or otherwise
// semi-isomorphic); this is checked.
//
// Rather than materializing one rule per differing path, the walk builds a
// difference FDD whose terminals are decision pairs — directly in reduced
// (hash-consed) form, each node canonicalized in a node store the moment
// its children exist, so the unreduced difference tree never materializes.
// Enumerating the reduced diagram's differing paths yields the
// discrepancies with identical suffix regions already coalesced, which is
// what keeps the output (and the merge step) small when two large
// firewalls disagree on much of the packet space.
//
// The lockstep walks under distinct root-edge pairs are independent, so
// they fan out across a GOMAXPROCS-bounded worker pool; each worker
// hash-conses into its own store shard, and the shards are stitched under
// a fresh root and re-interned once.
func CompareSemiIsomorphic(sa, sb *fdd.FDD) *Report {
	// Background contexts never cancel, so the error is impossible.
	report, _ := CompareSemiIsomorphicContext(context.Background(), sa, sb)
	return report
}

// CompareSemiIsomorphicContext is CompareSemiIsomorphic with
// cancellation: every walker polls ctx every cancelCheckEvery node
// visits, and once one sees it canceled the whole walk unwinds and the
// partial difference diagram is discarded. The only possible error is a
// wrapped ctx.Err().
func CompareSemiIsomorphicContext(ctx context.Context, sa, sb *fdd.FDD) (*Report, error) {
	if !shape.SemiIsomorphic(sa, sb) {
		// Programming error in the pipeline, not user input.
		panic("compare: diagrams are not semi-isomorphic")
	}
	_, sp := trace.Start(ctx, "compare")
	defer sp.End()
	report := &Report{}
	var canceled atomic.Bool
	w := &cmpWalker{fulls: fullSets(sa.Schema), ctx: ctx, canceled: &canceled,
		budget: cancelCheckEvery, work: guard.FromContext(ctx)}

	var diff *fdd.FDD
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sa.Root.Edges) {
		workers = len(sa.Root.Edges) // terminal root: 0
	}
	if workers < 2 {
		w.in = fdd.NewInterner()
		root := w.walk(sa.Root, sb.Root)
		diff = &fdd.FDD{Schema: sa.Schema, Root: root}
	} else {
		diff = w.walkParallel(sa, sb, workers)
	}
	if canceled.Load() {
		// A budget crossing latches the same cancellation flag; its typed
		// error takes precedence so callers can map it to policy_too_complex.
		if err := w.work.Err(); err != nil {
			return nil, fmt.Errorf("compare: aborted: %w", err)
		}
		return nil, fmt.Errorf("compare: canceled: %w", ctx.Err())
	}
	report.PathsCompared, report.RawPaths = w.paths, w.raw

	for _, r := range diff.Rules() {
		da, db := r.Decision>>pairShift, r.Decision&(1<<pairShift-1)
		if da == db {
			continue
		}
		report.Discrepancies = append(report.Discrepancies, Discrepancy{Pred: r.Pred, A: da, B: db})
	}
	report.Discrepancies = MergeDiscrepancies(sa.Schema.NumFields(), report.Discrepancies)
	if sp != nil {
		sp.SetAttr("pathsCompared", report.PathsCompared)
		sp.SetAttr("rawPaths", report.RawPaths)
		sp.SetAttr("discrepancies", len(report.Discrepancies))
	}
	return report, nil
}

// cancelCheckEvery is how many node visits pass between context polls in
// the lockstep walk (see the identically named constant in package
// shape for the rationale).
const cancelCheckEvery = 256

// fullSets caches every field's full-domain set (Schema.FullSet
// allocates a fresh Set per call, and the walk needs one per node).
func fullSets(schema *field.Schema) []interval.Set {
	fulls := make([]interval.Set, schema.NumFields())
	for k := range fulls {
		fulls[k] = schema.FullSet(k)
	}
	return fulls
}

// cmpWalker carries one lockstep walk's node store and path counters.
type cmpWalker struct {
	in    *fdd.Interner
	fulls []interval.Set
	paths int // decision-path pairs walked
	raw   int // pairs with differing terminal decisions

	ctx      context.Context
	canceled *atomic.Bool // shared cancellation latch across all shards
	budget   int          // goroutine-local countdown to the next ctx poll

	// work, when non-nil, is the request's guard budget; every node the
	// walk materializes is charged at the ctx-poll cadence via pending.
	work    *guard.Budget
	pending int
}

// stop reports whether the walk should abort, polling ctx and flushing
// budget charges once per cancelCheckEvery node visits and latching the
// result for the other shards.
func (w *cmpWalker) stop() bool {
	if w.canceled.Load() {
		return true
	}
	w.budget--
	if w.budget > 0 {
		return false
	}
	w.budget = cancelCheckEvery
	if w.flushWork() {
		return true
	}
	if w.ctx.Err() != nil {
		w.canceled.Store(true)
		return true
	}
	return false
}

// flushWork empties the pending node charges into the budget, latching
// cancellation for every shard on a crossing.
func (w *cmpWalker) flushWork() bool {
	if w.work == nil || w.pending == 0 {
		w.pending = 0
		return false
	}
	n := w.pending
	w.pending = 0
	if err := w.work.AddNodes(int64(n)); err != nil {
		w.canceled.Store(true)
		return true
	}
	return false
}

// walk compares the semi-isomorphic subtrees a and b and returns the
// canonical (hash-consed) root of their difference diagram.
func (w *cmpWalker) walk(a, b *fdd.Node) *fdd.Node {
	if w.stop() {
		// Unwind with an arbitrary agreeing terminal; the caller checks
		// the cancellation latch and discards the diagram.
		return w.in.CanonicalTerminal(1<<pairShift | 1)
	}
	w.pending++
	if a.IsTerminal() {
		w.paths++
		if a.Decision != b.Decision {
			w.raw++
		}
		return w.in.CanonicalTerminal(a.Decision<<pairShift | b.Decision)
	}
	edges := make([]*fdd.Edge, len(a.Edges))
	for i := range a.Edges {
		edges[i] = &fdd.Edge{
			Label: a.Edges[i].Label,
			To:    w.walk(a.Edges[i].To, b.Edges[i].To),
		}
	}
	return w.in.Canonicalize(a.Field, edges, w.fulls[a.Field])
}

// walkParallel fans the per-root-edge subwalks out over `workers`
// goroutines. Shaped diagrams are trees, so the subwalks share nothing;
// each worker interns into its own store shard. The shard results are
// stitched under a fresh root and re-interned once, which canonicalizes
// across shards. Counters are summed into w, and the result is
// deterministic: shard k always lands at root-edge position k.
func (w *cmpWalker) walkParallel(sa, sb *fdd.FDD, workers int) *fdd.FDD {
	n := len(sa.Root.Edges)
	edges := make([]*fdd.Edge, n)
	shards := make([]cmpWalker, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(sw *cmpWalker) {
			defer wg.Done()
			sw.in = fdd.NewInterner()
			sw.fulls = w.fulls
			sw.ctx, sw.canceled, sw.budget = w.ctx, w.canceled, cancelCheckEvery
			sw.work = w.work
			defer sw.flushWork()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				edges[k] = &fdd.Edge{
					Label: sa.Root.Edges[k].Label,
					To:    sw.walk(sa.Root.Edges[k].To, sb.Root.Edges[k].To),
				}
			}
		}(&shards[i])
	}
	wg.Wait()
	for i := range shards {
		w.paths += shards[i].paths
		w.raw += shards[i].raw
	}
	root := &fdd.Node{Field: sa.Root.Field, Edges: edges}
	if w.canceled.Load() {
		// The shards bailed early; skip the (possibly expensive) final
		// reduction — the caller discards the diagram anyway.
		return &fdd.FDD{Schema: sa.Schema, Root: root}
	}
	w.in = fdd.NewInterner()
	return w.in.Reduce(&fdd.FDD{Schema: sa.Schema, Root: root})
}

// MergeDiscrepancies coalesces discrepancy regions that are identical in
// their decisions and in every field but one, unioning the differing
// field. Shaping slices the packet space finely (e.g. "port != 25"
// becomes the two paths [0,24] and [26,65535]); merging restores the
// human-readable rows the paper shows in Table 3. It iterates field by
// field to a fixpoint.
func MergeDiscrepancies(numFields int, ds []Discrepancy) []Discrepancy {
	if len(ds) <= 1 {
		return ds
	}
	// keyBuf is reused across every row and round; keys[i] caches row
	// i's group key so it is computed exactly once per (row, field).
	var keyBuf []byte
	keys := make([]string, len(ds))
	changed := true
	for changed {
		changed = false
		// Merge the last (most specific) fields first: coalescing e.g. the
		// protocol split before the source split is what recovers the
		// paper's Table 3 rows rather than an equally-minimal but less
		// natural partition.
		for f := numFields - 1; f >= 0; f-- {
			groups := make(map[string][]int, len(ds))
			keys = keys[:0]
			for i, d := range ds {
				keyBuf = appendMergeKey(keyBuf[:0], d, f)
				key := string(keyBuf)
				keys = append(keys, key)
				groups[key] = append(groups[key], i)
			}
			if len(groups) == len(ds) {
				continue // nothing to merge on this field
			}
			merged := make([]Discrepancy, 0, len(groups))
			for i, d := range ds {
				idxs := groups[keys[i]]
				if idxs[0] != i {
					continue // folded into an earlier row
				}
				out := Discrepancy{Pred: d.Pred.Clone(), A: d.A, B: d.B}
				for _, j := range idxs[1:] {
					out.Pred[f] = out.Pred[f].Union(ds[j].Pred[f])
					changed = true
				}
				merged = append(merged, out)
			}
			ds = merged
		}
	}
	return ds
}

// appendMergeKey appends a binary serialization of the discrepancy's
// decisions and all fields except f to b. Set.AppendKey's count-prefixed
// encoding keeps concatenated fields uniquely decodable, so equal keys
// imply equal rows; unlike the former fmt.Fprintf string key, building
// one allocates nothing beyond the reused buffer.
func appendMergeKey(b []byte, d Discrepancy, f int) []byte {
	b = binary.AppendVarint(b, int64(d.A))
	b = binary.AppendVarint(b, int64(d.B))
	for i, s := range d.Pred {
		if i == f {
			continue
		}
		b = s.AppendKey(b)
	}
	return b
}

// Equivalent reports whether the two policies map every packet to the same
// decision.
func Equivalent(pa, pb *rule.Policy) (bool, error) {
	r, err := Diff(pa, pb)
	if err != nil {
		return false, err
	}
	return r.Equivalent(), nil
}

// PairReport is one pairwise comparison in an N-team cross comparison.
// Exactly one of Report and Err is set: a pair that fails (budget
// exceeded, incomplete policy, injected fault) carries its own error
// instead of discarding the rest of the matrix, so one adversarial
// policy costs only its own pairs.
type PairReport struct {
	I, J   int // indices of the compared policies
	Report *Report
	// Err is the pair's failure, nil on success. Cancellation of the
	// whole cross-comparison is not a pair failure — see
	// CrossCompareFunc.
	Err error
}

// CrossCompare compares every pair among N policies (Section 7.3's cross
// comparison for N > 2 teams) and returns the N*(N-1)/2 reports in
// deterministic (i, j) order. Pairs are independent, so they are compared
// concurrently, bounded by GOMAXPROCS workers. Pair failures come back
// per entry (PairReport.Err), not as a call failure.
func CrossCompare(policies []*rule.Policy) ([]PairReport, error) {
	return CrossCompareContext(context.Background(), policies)
}

// CrossCompareContext is CrossCompare with cancellation: no new pair
// starts once ctx is canceled, running pairs abort mid-pipeline (see
// DiffContext), and the call fails with a wrapped ctx.Err().
func CrossCompareContext(ctx context.Context, policies []*rule.Policy) ([]PairReport, error) {
	return CrossCompareFunc(ctx, len(policies), func(ctx context.Context, i, j int) (*Report, error) {
		return DiffContext(ctx, policies[i], policies[j])
	})
}

// CrossCompareFunc runs diff over every pair (i, j) with i < j among n
// items and returns the n*(n-1)/2 reports in deterministic (i, j) order.
// It owns the scheduling — a GOMAXPROCS-bounded worker pool, no new pair
// once ctx dies — while the caller owns the comparison itself, which is
// how a caching layer substitutes memoized reports without reimplementing
// the fan-out.
//
// Failure isolation: a pair whose diff errors is recorded in its own
// entry (PairReport.Err, wrapped with the pair indices) while every
// other pair still runs and returns its report — one pathological
// policy costs its N-1 pairs, not the whole matrix. Only the caller's
// ctx dying fails the call as a whole: the slice built so far is
// discarded and the wrapped ctx.Err() is returned, since partial
// results the caller no longer wants are worthless.
func CrossCompareFunc(ctx context.Context, n int, diff func(ctx context.Context, i, j int) (*Report, error)) ([]PairReport, error) {
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}

	out := make([]PairReport, len(pairs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k, pr := range pairs {
		if ctx.Err() != nil {
			break
		}
		// Acquire before spawning: at most GOMAXPROCS goroutines exist at
		// a time, instead of all N*(N-1)/2 launching at once and parking
		// on the semaphore (each parked goroutine would pin its stack and
		// its pair's state for the whole run).
		sem <- struct{}{}
		wg.Add(1)
		go func(k int, pr pair) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := diff(ctx, pr.i, pr.j)
			if err != nil {
				out[k] = PairReport{I: pr.i, J: pr.j,
					Err: fmt.Errorf("compare: pair (%d, %d): %w", pr.i, pr.j, err)}
				return
			}
			out[k] = PairReport{I: pr.i, J: pr.j, Report: r}
		}(k, pr)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compare: cross comparison: %w", err)
	}
	return out, nil
}
