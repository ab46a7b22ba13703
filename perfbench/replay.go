package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"diversefw/internal/anomaly"
	"diversefw/internal/api"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/frontend"
	"diversefw/internal/guard"
	"diversefw/internal/impact"
	"diversefw/internal/interval"
	"diversefw/internal/metrics"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
)

// The traced replay runs the workload's request bodies in process through
// the same public calls the fwserved handlers make, and records a span
// around each call. Calls run one after another on one goroutine, except
// the two compilations of a diff, which overlap as they do in
// Engine.DiffPolicies. It measures layers; the HTTP run
// measures what users see. Spans are kept in memory and written out
// once the replay ends.

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Allocs is the heap allocation count over the call, from
	// runtime.MemStats.Mallocs; exact because nothing but the call
	// allocates while the span is open.
	Allocs uint64 `json:"allocs"`
	// Probe marks a measurement made off the request path: a call the
	// handler makes inside another layer (PolicyHash inside Compile),
	// timed on its own.
	Probe bool `json:"probe,omitempty"`
}

// tracer records spans. A nil tracer runs calls untimed.
type tracer struct {
	epoch  time.Time
	spans  []span
	parent int
	req    int
	ms     runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), parent: -1} }

// do runs fn inside a span named name, a child of the span that is open.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent, Req: t.req, Name: name})
	saved := t.parent
	t.parent = id
	runtime.ReadMemStats(&t.ms)
	m0 := t.ms.Mallocs
	t0 := time.Now()
	fn()
	t1 := time.Now()
	runtime.ReadMemStats(&t.ms)
	t.parent = saved
	sp := &t.spans[id]
	sp.Start, sp.End = t0.Sub(t.epoch).Nanoseconds(), t1.Sub(t.epoch).Nanoseconds()
	sp.Allocs = t.ms.Mallocs - m0
}

// probe is do for a root-level measurement off the request path.
func (t *tracer) probe(name string, fn func()) {
	saved := t.parent
	t.parent = -1
	t.do(name, fn)
	t.parent = saved
	t.spans[len(t.spans)-1].Probe = true
}

// newReplayEngine mirrors the engine fwserved builds with default flags:
// default cache budgets, a metrics registry, and the default work budget.
func newReplayEngine() *engine.Engine {
	return engine.New(engine.Config{
		Metrics: metrics.NewRegistry(),
		Limits:  guard.Limits{MaxFDDNodes: 2_000_000, MaxEdgeSplits: 2_000_000},
	})
}

// replayed is what one replayed request produced, for the probes.
type replayed struct {
	policies []*rule.Policy // every lowered policy, in request order
	compiled []*engine.Compiled
	rows     int
	bytes    int
}

// decodeBody decodes like the handlers do: unknown fields rejected, and
// exactly one JSON value.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func lower(in api.PolicyInput) (*rule.Policy, error) {
	return frontend.Parse(in.Format, schema, in.Text, frontend.Options{Chain: in.Chain})
}

// encode renders v the way the handlers write it and returns the size.
func encode(v any) (int, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Len(), err
}

// replayOne runs one request body of the given kind through the layers,
// each call inside its own span.
func replayOne(kind string, eng *engine.Engine, body []byte, t *tracer) (replayed, error) {
	ctx := context.Background()
	var out replayed
	var err error
	switch kind {
	case kindDiff:
		var req api.DiffRequest
		t.do("api.decode", func() { err = decodeBody(body, &req) })
		if err != nil {
			return out, err
		}
		for _, in := range []api.PolicyInput{req.A, req.B} {
			var p *rule.Policy
			t.do("frontend.lower", func() { p, err = lower(in) })
			if err != nil {
				return out, err
			}
			out.policies = append(out.policies, p)
		}
		// One span covers both compilations, run concurrently as
		// Engine.DiffPolicies runs them.
		var cs [2]*engine.Compiled
		var errB error
		t.do("engine.compile", func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				cs[1], _, errB = eng.Compile(ctx, out.policies[1])
			}()
			cs[0], _, err = eng.Compile(ctx, out.policies[0])
			<-done
		})
		if err = errors.Join(err, errB); err != nil {
			return out, err
		}
		out.compiled = cs[:]
		var rep *compare.Report
		var hit bool
		t.do("compare.diff", func() { rep, hit, err = eng.Diff(ctx, cs[0], cs[1]) })
		if err != nil {
			return out, err
		}
		out.rows = len(rep.Discrepancies)
		t.do("api.encode", func() {
			resp := api.ConvertReport(schema, rep)
			resp.Cached = hit
			out.bytes, err = encode(resp)
		})
	case kindImpact:
		var req api.ImpactRequest
		t.do("api.decode", func() { err = decodeBody(body, &req) })
		if err != nil {
			return out, err
		}
		var before *rule.Policy
		var edits []impact.Edit
		// Lowering covers the policy text and the edit script: both are
		// text turned into the rule IR before the engine sees them.
		t.do("frontend.lower", func() {
			if before, err = lower(req.Before); err != nil {
				return
			}
			for _, line := range req.Edits {
				var e impact.Edit
				if e, err = impact.ParseEdit(schema, line); err != nil {
					return
				}
				edits = append(edits, e)
			}
		})
		if err != nil {
			return out, err
		}
		out.policies = append(out.policies, before)
		var after *rule.Policy
		var rep *compare.Report
		var st engine.EditStats
		t.do("engine.impact", func() { after, rep, st, err = eng.ImpactEdits(ctx, before, edits) })
		if err != nil {
			return out, err
		}
		out.rows = len(rep.Discrepancies)
		t.do("api.encode", func() {
			resp := api.ConvertImpact(impact.FromReport(before, after, rep))
			resp.Incremental = st.Incremental
			resp.RulesReappended = st.RulesReappended
			out.bytes, err = encode(resp)
		})
	case kindAnalyze:
		var req api.AnalyzeRequest
		t.do("api.decode", func() { err = decodeBody(body, &req) })
		if err != nil {
			return out, err
		}
		var p *rule.Policy
		t.do("frontend.lower", func() { p, err = lower(req.Policy) })
		if err != nil {
			return out, err
		}
		out.policies = append(out.policies, p)
		var as []anomaly.Anomaly
		t.do("anomaly.detect", func() { as = anomaly.Detect(p) })
		var shadowed, removed []int
		t.do("anomaly.shadowed", func() { shadowed, err = anomaly.CompletelyShadowed(p) })
		if err != nil {
			return out, err
		}
		t.do("redundancy.remove", func() { _, removed, err = redundancy.RemoveAll(p) })
		if err != nil {
			return out, err
		}
		t.do("api.encode", func() { out.bytes, err = encode(analyzeResponse(p, as, shadowed, removed)) })
	default:
		return out, fmt.Errorf("no replay for kind %q", kind)
	}
	return out, err
}

// analyzeResponse assembles the /v1/analyze body the way the handler
// does, so the encode span does the handler's rendering work.
func analyzeResponse(p *rule.Policy, as []anomaly.Anomaly, shadowed, removed []int) api.AnalyzeResponse {
	resp := api.AnalyzeResponse{Format: frontend.DefaultFormat, Policy: rule.FormatPolicy(p)}
	severity := map[string]string{
		"shadowing": "error", "never-first-match": "error",
		"generalization": "warning", "correlation": "warning", "redundant": "warning",
	}
	for _, f := range api.ConvertAnomalies(p, as) {
		sev := severity[f.Kind]
		if sev == "" {
			sev = "info"
		}
		resp.Findings = append(resp.Findings, api.AnalyzeFinding{
			Kind: f.Kind, Severity: sev, Source: "pairwise", Rules: f.Rules, Detail: f.Detail,
		})
	}
	exact := func(kind, what string, idx []int) {
		for _, i := range idx {
			resp.Findings = append(resp.Findings, api.AnalyzeFinding{
				Kind: kind, Severity: severity[kind], Source: "exact", Rules: []int{i + 1},
				Detail: fmt.Sprintf("rule %d is %s: %s", i+1, what, rule.FormatRule(p.Schema, p.Rules[i])),
			})
		}
	}
	exact("never-first-match", "never a first match", shadowed)
	exact("redundant", "semantically redundant", removed)
	resp.Complexity = api.Complexity{Rules: p.Size(), Fields: p.Schema.NumFields()}
	for fi := 0; fi < p.Schema.NumFields(); fi++ {
		f := p.Schema.Field(fi)
		fc := api.FieldComplexity{Name: f.Name}
		for _, r := range p.Rules {
			fc.Intervals += r.Pred[fi].NumIntervals()
			if !r.Pred[fi].Equal(interval.SetFromInterval(f.Domain)) {
				fc.ConstrainedRules++
			}
		}
		resp.Complexity.Intervals += fc.Intervals
		resp.Complexity.PerField = append(resp.Complexity.PerField, fc)
	}
	return resp
}

// replayResult summarizes a replay.
type replayResult struct {
	Requests int
	Spans    []span
	// Untraced and Traced total the request wall times of the two passes
	// over the same bodies.
	Untraced, Traced time.Duration
	// FDDNodes and Rows collect per-request facts: nodes of each compiled
	// policy, discrepancy rows per report.
	FDDNodes, Rows, Bytes []float64
}

// replay runs the pool's requests in order through two fresh engines
// primed identically: one untraced, one traced, the order alternating per
// request so drift hits both passes alike. It stops once budget has
// passed.
func replay(w *Workload, budget time.Duration) (*replayResult, error) {
	runtime.GC() // start from the live heap alone, as a fresh server does
	engs := [2]*engine.Engine{newReplayEngine(), newReplayEngine()}
	for _, eng := range engs {
		for _, p := range w.Prime {
			if _, err := replayOne(kindDiff, eng, p.Body, nil); err != nil {
				return nil, fmt.Errorf("replay priming: %w", err)
			}
		}
	}
	t := newTracer()
	res := &replayResult{}
	start := time.Now()
	for i := 0; i < len(w.Pool) && time.Since(start) < budget; i++ {
		req := &w.Pool[i]
		for pass := 0; pass < 2; pass++ {
			traced := (i+pass)%2 == 1
			if !traced {
				t0 := time.Now()
				if _, err := replayOne(w.Kind, engs[0], req.Body, nil); err != nil {
					return nil, fmt.Errorf("replay request %d: %w", i, err)
				}
				res.Untraced += time.Since(t0)
				continue
			}
			t.req = i
			var out replayed
			var err error
			root := len(t.spans)
			t.do("request", func() { out, err = replayOne(w.Kind, engs[1], req.Body, t) })
			if err != nil {
				return nil, fmt.Errorf("traced replay request %d: %w", i, err)
			}
			res.Traced += time.Duration(t.spans[root].End - t.spans[root].Start)
			for _, p := range out.policies {
				t.probe("engine.hash", func() { _ = engine.PolicyHash(p) })
			}
			for _, c := range out.compiled {
				res.FDDNodes = append(res.FDDNodes, float64(c.FDD.Stats().Nodes))
			}
			res.Rows = append(res.Rows, float64(out.rows))
			res.Bytes = append(res.Bytes, float64(out.bytes))
		}
		res.Requests = i + 1
	}
	res.Spans = t.spans
	return res, nil
}

// layerStats is one layer's per-call and per-request figures.
type layerStats struct {
	Calls int
	// CallMs and CallAllocs are medians over calls.
	CallMs, CallAllocs float64
	// SelfMs is the median over requests of the layer's self time summed
	// within the request (zero for requests that never entered it).
	SelfMs float64
}

// summarize computes per-layer statistics from the spans. A span's self
// time is its duration minus its children's.
func summarize(spans []span, requests int) map[string]*layerStats {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	callMs := map[string][]float64{}
	callAllocs := map[string][]float64{}
	self := map[string]map[int]float64{}
	for i, s := range spans {
		if s.Name == "request" {
			continue
		}
		ms := float64(s.End-s.Start) / 1e6
		callMs[s.Name] = append(callMs[s.Name], ms)
		callAllocs[s.Name] = append(callAllocs[s.Name], float64(s.Allocs))
		if s.Probe {
			continue
		}
		if self[s.Name] == nil {
			self[s.Name] = map[int]float64{}
		}
		self[s.Name][s.Req] += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := map[string]*layerStats{}
	for name, ms := range callMs {
		ls := &layerStats{Calls: len(ms), CallMs: median(ms), CallAllocs: median(callAllocs[name])}
		if per, ok := self[name]; ok {
			xs := make([]float64, 0, requests)
			for r := 0; r < requests; r++ {
				xs = append(xs, per[r])
			}
			ls.SelfMs = median(xs)
		}
		out[name] = ls
	}
	return out
}

// layerOrder is the request path, in order, for printing.
func layerOrder(stats map[string]*layerStats) []string {
	rank := map[string]int{
		"api.decode": 0, "frontend.lower": 1, "engine.hash": 2, "engine.compile": 3,
		"compare.diff": 4, "engine.impact": 5, "anomaly.detect": 6,
		"anomaly.shadowed": 7, "redundancy.remove": 8, "api.encode": 9,
	}
	var names []string
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	return names
}
