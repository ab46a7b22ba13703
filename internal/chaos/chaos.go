// Package chaos is a build-tag-free fault-injection registry for the
// serving path. Production code declares named injection points (Fire
// calls at the spots where the interesting failures live: the start of
// a compile flight, a cache insert, the top of a shaping walk) and
// tests register faults at those points — added latency, forced budget
// exhaustion, injected errors — to make rare failure interleavings
// deterministic under the race detector.
//
// The registry is always compiled in; its cost when no fault is
// registered is one atomic load per Fire call, so the hooks can sit on
// the real request path rather than behind a build tag that CI would
// have to remember to flip. Faults are registered on the package-level
// Default registry and removed by calling the function Register
// returns, so a test's t.Cleanup restores a quiet registry even when
// assertions fail midway.
package chaos

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"diversefw/internal/guard"
)

// Point names one injection site. The production code firing a point
// documents what an injected error means there (abort the operation,
// skip a cache insert, ...).
type Point string

// The injection points wired into the serving path.
const (
	// PointCompile fires inside a compile singleflight flight, before
	// FDD construction. An error aborts the compilation (and is never
	// cached, like any failed flight).
	PointCompile Point = "engine.compile"
	// PointDiff fires inside a budgeted diff flight, just before the
	// diff walk. An error aborts the diff; a fault that exhausts the
	// budget trips the walk at its next budget poll.
	PointDiff Point = "engine.diff"
	// PointCacheInsertCompile fires before inserting a freshly compiled
	// policy into the compile cache. An error skips the insert; the
	// request still succeeds with the computed result.
	PointCacheInsertCompile Point = "engine.cache_insert.compile"
	// PointCacheInsertReport is PointCacheInsertCompile for the report
	// cache.
	PointCacheInsertReport Point = "engine.cache_insert.report"
	// PointShape fires at the top of a shaping walk (after
	// simplification, before alignment). Served diffs never shape; only
	// resolve Method 1 reaches it. An error aborts the shaping.
	PointShape Point = "shape.walk"
	// PointJobPair fires at the top of one async-job pair comparison,
	// on the worker goroutine with the job's context. An error fails
	// that pair (it settles as an error entry; with retries enabled it
	// is retried and eventually quarantined) without touching its
	// siblings.
	PointJobPair Point = "jobs.pair"
	// PointJournalWrite fires before appending a record to the jobs
	// journal. An error drops the record: durability degrades (counted,
	// healed by the next compaction), the job operation succeeds.
	PointJournalWrite Point = "jobs.journal.write"
	// PointJournalFsync fires before an fsync of the jobs journal. An
	// error skips the sync — the write sits in the page cache until the
	// next sync, the same exposure FsyncNever accepts by design.
	PointJournalFsync Point = "jobs.journal.fsync"
)

// Fault is one injected behavior. It runs synchronously at the Fire
// site on the request's goroutine with the request's context; returning
// a non-nil error makes the site fail the way its Point documents.
type Fault func(ctx context.Context) error

// Registry holds registered faults. The zero value is ready to use.
type Registry struct {
	// active counts registered faults so Fire on a quiet registry is a
	// single atomic load, no lock.
	active atomic.Int64

	mu    sync.Mutex
	next  int
	hooks map[Point]map[int]Fault
}

// Default is the process-wide registry the serving path fires into.
var Default = &Registry{}

// Register installs f at point p and returns a function that removes
// it. Multiple faults on one point run in registration order until one
// returns an error.
func (r *Registry) Register(p Point, f Fault) (remove func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hooks == nil {
		r.hooks = make(map[Point]map[int]Fault)
	}
	if r.hooks[p] == nil {
		r.hooks[p] = make(map[int]Fault)
	}
	id := r.next
	r.next++
	r.hooks[p][id] = f
	r.active.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if _, ok := r.hooks[p][id]; ok {
				delete(r.hooks[p], id)
				r.active.Add(-1)
			}
		})
	}
}

// Fire runs the faults registered at p, in registration order, stopping
// at the first error. With nothing registered it is one atomic load.
func (r *Registry) Fire(ctx context.Context, p Point) error {
	if r == nil || r.active.Load() == 0 {
		return nil
	}
	// Snapshot under the lock, run outside it: a fault may sleep, and a
	// sleeping fault must not block Register/remove from other tests.
	r.mu.Lock()
	var faults []Fault
	if m := r.hooks[p]; len(m) > 0 {
		ids := make([]int, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		// Registration order == id order (ids are assigned from a
		// counter); small n, insertion sort.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		faults = make([]Fault, len(ids))
		for i, id := range ids {
			faults[i] = m[id]
		}
	}
	r.mu.Unlock()
	for _, f := range faults {
		if err := f(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Register installs f at p on the Default registry.
func Register(p Point, f Fault) (remove func()) { return Default.Register(p, f) }

// Fire fires p on the Default registry.
func Fire(ctx context.Context, p Point) error { return Default.Fire(ctx, p) }

// Latency returns a fault that sleeps for d (or until ctx is done,
// returning its error) — the basic slow-dependency injection.
func Latency(d time.Duration) Fault {
	return func(ctx context.Context) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// FailWith returns a fault that always returns err.
func FailWith(err error) Fault {
	return func(context.Context) error { return err }
}

// EveryN returns a fault that runs inner on every n-th firing (the
// n-th, 2n-th, ...) and is a no-op otherwise. The counter is its own —
// two EveryN faults never share state — and atomic, so the cadence is
// exact even when fired concurrently. n < 1 means never. Deterministic
// by construction: with a serialized workload the k-th firing either
// always or never faults, which is what seeded scenario runs need.
func EveryN(n int, inner Fault) Fault {
	var count atomic.Uint64
	return func(ctx context.Context) error {
		if n < 1 {
			return nil
		}
		if count.Add(1)%uint64(n) != 0 {
			return nil
		}
		return inner(ctx)
	}
}

// ExhaustBudget returns a fault that latches the context's work budget
// as exceeded on resource kind and returns nil, so the walk keeps going
// until its own next budget poll — exercising the mid-walk unwind path
// rather than a clean up-front failure. Without a budget in ctx it is a
// no-op.
func ExhaustBudget(kind guard.Kind) Fault {
	return func(ctx context.Context) error {
		guard.FromContext(ctx).ForceExceed(kind)
		return nil
	}
}
