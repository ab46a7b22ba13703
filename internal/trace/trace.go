// Package trace is a dependency-free, request-scoped tracing library for
// the analysis pipeline: span trees (name, start, duration, attributes,
// children) carried through context.Context, snapshotted into immutable
// records, and retained in a bounded buffer (see Buffer) for export at
// GET /debug/traces or via the CLIs' -trace flag.
//
// The design goal is that untraced code paths pay almost nothing: Start
// on a context with no active trace returns a nil *Span, and every Span
// method is a nil-safe no-op, so the pipeline packages instrument
// unconditionally and the cost without a trace is one context value
// lookup per phase. With a trace active, spans may gain children and
// attributes from multiple goroutines concurrently (the pipeline
// constructs two FDDs in parallel and fans its walks out per root edge);
// a per-span mutex makes that safe.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Attr is one span annotation. Values should be JSON-encodable scalars
// (numbers, strings, bools): records are exported as JSON verbatim.
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr; shorthand for call sites passing literals.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is one timed operation in a trace's tree. All methods are safe on
// a nil receiver (no-ops), which is how untraced code paths stay free.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while the span is still running
	attrs    []Attr
	children []*Span
}

// Trace owns one span tree. Create it with New, end it with Finish, and
// turn it into an immutable Record with Snapshot.
type Trace struct {
	id   string
	root *Span
}

// ctxKey carries the active *Span through a context chain. Context
// values survive context.WithoutCancel, so spans follow work into
// detached flights (see internal/engine's singleflight).
type ctxKey struct{}

// New starts a trace whose root span is named name and returns a context
// carrying it. An empty id gets a generated one (NewID).
func New(ctx context.Context, name, id string) (context.Context, *Trace) {
	if id == "" {
		id = NewID()
	}
	t := &Trace{id: id, root: &Span{name: name, start: time.Now()}}
	return context.WithValue(ctx, ctxKey{}, t.root), t
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish ends the root span. Idempotent.
func (t *Trace) Finish() { t.root.End() }

// Snapshot renders the trace into an immutable record; spans still
// running are given their duration so far.
func (t *Trace) Snapshot() Record {
	return Record{TraceID: t.id, Root: t.root.Snapshot()}
}

// Active returns the span the context carries, or nil when untraced.
func Active(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child span under the context's active span and returns a
// context carrying the child. On an untraced context it returns ctx
// unchanged and a nil span — whose methods are all no-ops — so callers
// never branch.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := Active(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return context.WithValue(ctx, ctxKey{}, child), child
}

// Untraced returns ctx without an active span: work under it records no
// spans, while ctx's deadline, cancellation and other values still hold.
func Untraced(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, (*Span)(nil))
}

// Event records a zero-duration marker child (e.g. a cache lookup) on
// the context's active span. No-op when untraced.
func Event(ctx context.Context, name string, attrs ...Attr) {
	if s := Active(ctx); s != nil {
		s.AddCompleted(name, time.Now(), 0, attrs...)
	}
}

// StartChild opens and returns a child span. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SetAttr records one annotation. Nil-safe. A later SetAttr with the
// same key wins in the snapshot.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End marks the span finished. Nil-safe and idempotent (the first End
// wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// AddCompleted attaches a child span that was measured externally — a
// wait that is only known to have happened after it ended (e.g. joining
// another request's singleflight). Nil-safe.
func (s *Span) AddCompleted(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	child := &Span{name: name, start: start, end: start.Add(d), attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// Snapshot renders the span's subtree into an immutable record; spans
// still running get their duration so far. Safe to call concurrently
// with ongoing span activity. On a nil span it returns a zero record.
func (s *Span) Snapshot() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	return s.snapshot(time.Now())
}

func (s *Span) snapshot(now time.Time) SpanRecord {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	rec := SpanRecord{
		Name:            s.name,
		StartUnixMicros: s.start.UnixMicro(),
		DurationMicros:  end.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	// Recurse outside the lock: children only ever gain entries, and the
	// copied prefix is stable.
	for _, c := range children {
		rec.Children = append(rec.Children, c.snapshot(now))
	}
	return rec
}

// Record is the immutable snapshot of one trace, as exported at
// GET /debug/traces and by the CLIs' -trace flag.
type Record struct {
	TraceID string     `json:"traceId"`
	Root    SpanRecord `json:"root"`
}

// SpanRecord is the immutable snapshot of one span.
type SpanRecord struct {
	Name            string         `json:"name"`
	StartUnixMicros int64          `json:"startUnixMicros"`
	DurationMicros  int64          `json:"durationMicros"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []SpanRecord   `json:"children,omitempty"`
}

// Duration returns the span's duration.
func (r SpanRecord) Duration() time.Duration {
	return time.Duration(r.DurationMicros) * time.Microsecond
}

// Walk visits the record and every descendant, depth-first, parents
// before children.
func (r SpanRecord) Walk(fn func(SpanRecord)) {
	fn(r)
	for _, c := range r.Children {
		c.Walk(fn)
	}
}

// Find returns the first span named name in a depth-first walk of the
// record's subtree.
func (r SpanRecord) Find(name string) (SpanRecord, bool) {
	if r.Name == name {
		return r, true
	}
	for _, c := range r.Children {
		if found, ok := c.Find(name); ok {
			return found, true
		}
	}
	return SpanRecord{}, false
}

// NewID returns a 16-hex-character random trace ID (the same shape the
// server uses for generated request IDs).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; IDs are best-effort.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
