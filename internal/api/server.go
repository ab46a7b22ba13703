package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/guard"
	"diversefw/internal/impact"
	"diversefw/internal/interval"
	"diversefw/internal/jobs"
	"diversefw/internal/metrics"
	"diversefw/internal/query"
	"diversefw/internal/resolve"
	"diversefw/internal/rule"
	"diversefw/internal/slo"
	"diversefw/internal/trace"
)

// maxBodyBytes bounds request bodies; the largest real-life policies the
// paper discusses (a few thousand rules) fit comfortably.
const maxBodyBytes = 4 << 20

// maxCrossPolicies bounds one cross-comparison: N policies cost
// N*(N-1)/2 pairwise pipelines, so the limit is deliberately small.
const maxCrossPolicies = 16

// statusClientClosedRequest is the nginx convention for "the client went
// away before we could answer"; it only ever shows up in metrics and
// logs, never on the wire.
const statusClientClosedRequest = 499

// schemaNames are the wire schema names, in the order /v1/version lists
// them (see schemaByName).
var schemaNames = []string{"five", "four", "paper"}

// Server exposes the analyses over HTTP with JSON bodies. All analysis
// work goes through an engine, so repeated policies are compiled once and
// repeated pairs are compared once.
type Server struct {
	mux            *http.ServeMux
	log            *slog.Logger
	timeout        time.Duration
	eng            *engine.Engine
	traces         *trace.Buffer
	inst           *instruments
	metricsReg     *metrics.Registry
	metricsHandler http.Handler
	admCfg         *admission.Config
	adm            *admission.Controller
	jobsCfg        jobs.Config
	jobs           *jobs.Coordinator
	slo            *slo.Store
	draining       atomic.Bool
}

// NewServer builds the handler tree. With no options the server is bare —
// no metrics, no logging, no request timeout, a default-sized engine —
// see WithMetrics, WithLogger, WithRequestTimeout, and WithEngine.
func NewServer(opts ...Option) *Server {
	s := &Server{
		mux: http.NewServeMux(),
		log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.eng == nil {
		// A caller-provided engine brings its own metrics wiring (or none);
		// the default one joins the server's registry when there is one.
		s.eng = engine.New(engine.Config{Metrics: s.metricsReg})
	}
	if s.traces == nil {
		s.traces = trace.NewBuffer(DefaultTraceCapacity,
			DefaultSlowTraceThreshold, DefaultSlowTraceCapacity)
	}
	if s.admCfg != nil {
		// Built here rather than in the option so the controller joins
		// the metrics registry regardless of option order.
		s.adm = admission.New(*s.admCfg, s.metricsReg)
	}
	// The SLO store is always on, like tracing: objectives are part of
	// the serving contract (/debug/slo, the healthz summary), and the
	// built-in DefaultConfig keeps a bare server meaningful. WithSLO
	// swaps in a store built from a custom objectives file.
	if s.slo == nil {
		s.slo = slo.NewStore(slo.DefaultConfig())
	}
	if s.metricsReg != nil {
		s.slo.RegisterMetrics(s.metricsReg)
	}
	// The job coordinator is always on (the endpoints are part of v1);
	// WithJobs only tunes it. Like the admission controller, it is built
	// here so it joins the engine, registry, trace buffer, and SLO
	// store the option order settled on.
	if s.jobsCfg.Metrics == nil {
		s.jobsCfg.Metrics = s.metricsReg
	}
	if s.jobsCfg.Traces == nil {
		s.jobsCfg.Traces = s.traces
	}
	if s.jobsCfg.SLO == nil {
		s.jobsCfg.SLO = s.slo
	}
	s.jobs = jobs.New(s.eng, s.jobsCfg)
	s.handle("/healthz", s.health)
	s.handle("/v1/version", s.version)
	s.handle("/v1/diff", s.diff)
	s.handle("/v1/crosscompare", s.crossCompare)
	s.handle("/v1/impact", s.impact)
	s.handle("/v1/audit", s.audit)
	s.handle("/v1/analyze", s.analyze)
	s.handle("/v1/query", s.query)
	s.handle("/v1/resolve", s.resolve)
	s.handle("/v1/jobs", s.jobsCollection)
	s.handle("/v1/jobs/{id}", s.jobByID)
	s.handle("/debug/traces", s.debugTraces)
	s.handle("/debug/slo", s.debugSLO)
	if s.metricsHandler != nil {
		s.handle("/metrics", s.metricsHandler.ServeHTTP)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var _ http.Handler = (*Server)(nil)

// Engine returns the server's engine (for stats in tests and tooling).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Jobs returns the server's job coordinator (for tests and tooling).
func (s *Server) Jobs() *jobs.Coordinator { return s.jobs }

// Admission returns the server's admission controller; nil without
// WithAdmission.
func (s *Server) Admission() *admission.Controller { return s.adm }

// SLO returns the server's objective store (for tests and tooling).
func (s *Server) SLO() *slo.Store { return s.slo }

// debugSLO is GET /debug/slo: the live per-objective burn-rate report.
func (s *Server) debugSLO(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// Close stops the job coordinator: every live job is canceled (its
// in-flight pairs see their context die) and the workers are waited
// out. Call it after http.Server.Shutdown so polls for already-accepted
// jobs still answer during the drain. Idempotent.
func (s *Server) Close() { s.jobs.Close() }

// BeginDrain flips the server into draining: /healthz reports
// "draining" (so load balancers stop sending traffic) and admission
// control rejects all new analysis requests while admitted ones finish.
// Call it when shutdown starts, before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.adm.BeginDrain()
}

// requireGet guards the read-only endpoints the way decodeInto guards
// the POST ones.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return false
	}
	return true
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	st := s.eng.Stats()
	// Status reflects the overload posture: draining once shutdown
	// started (even without admission control), degraded while admission
	// is at capacity, ok otherwise.
	status := string(s.adm.Status())
	if s.draining.Load() {
		status = string(admission.StatusDraining)
	}
	resp := HealthResponse{
		Status:  status,
		SLO:     string(s.slo.Status()),
		Formats: frontend.Formats(),
		Cache: CacheHealth{
			Ready:          true,
			CompileEntries: st.Compile.Entries,
			ReportEntries:  st.Reports.Entries,
			ResidentBytes:  st.Compile.Bytes + st.Reports.Bytes,
		},
	}
	if s.adm != nil {
		as := s.adm.Stats()
		resp.Admission = &as
	}
	if s.jobs != nil {
		resp.Recovery = s.jobs.Recovery()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	resp := VersionResponse{
		GoVersion: runtime.Version(),
		Schemas:   schemaNames,
		Formats:   frontend.Formats(),
		Limits: Limits{
			MaxBodyBytes:     maxBodyBytes,
			MaxCrossPolicies: maxCrossPolicies,
			MaxJobPolicies:   maxJobPolicies,
		},
		Cache: s.eng.Stats(),
	}
	if s.timeout > 0 {
		resp.Limits.RequestTimeoutMillis = s.timeout.Milliseconds()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeInto reads a JSON request body: POST only (405 carries the
// required Allow header), bodies over maxBodyBytes are 413 not 400, and
// the body must be exactly one JSON value — trailing garbage such as
// `{...}{...}` is a 400, not silently ignored.
func decodeInto(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("trailing data after JSON body")
		}
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError maps a body-decoding failure to its status: an
// oversized body (MaxBytesReader tripping, possibly mid-decode) is 413,
// anything else the client sent is 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad request body: %v", err))
}

// analysisErrorStatus classifies a pipeline error into its HTTP status
// and machine-readable code. Shared between whole-request failures
// (writeAnalysisError) and per-pair entries in cross-comparison and job
// results, so a budget-tripped pair carries the same typed 422 envelope
// a budget-tripped request would.
func analysisErrorStatus(err error) (int, string) {
	var budget *guard.ErrBudgetExceeded
	switch {
	case errors.As(err, &budget):
		// The pipeline walk crossed this deployment's work budget: the
		// input is well-formed but its diagram blows up (the paper's
		// exponential regime). Typed check first — budget errors carry
		// no context sentinel, and the distinction matters to clients.
		return http.StatusUnprocessableEntity, CodePolicyTooComplex
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, CodeTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status only feeds metrics and logs.
		return statusClientClosedRequest, CodeClientClosed
	case errors.Is(err, fdd.ErrIncomplete):
		return http.StatusUnprocessableEntity, CodeIncompletePolicy
	default:
		return http.StatusUnprocessableEntity, CodeUnprocessable
	}
}

// writeAnalysisError maps a pipeline error to a response. Cancellation
// and deadline errors come out of the pipeline when the request context
// dies (client disconnect or WithRequestTimeout); a non-comprehensive
// policy gets its own code (it parses fine but has no FDD); everything
// else is a semantic error in otherwise well-formed input.
func writeAnalysisError(w http.ResponseWriter, err error) {
	status, code := analysisErrorStatus(err)
	if code == CodeTimeout {
		err = fmt.Errorf("request timed out")
	}
	writeError(w, status, code, err)
}

// convertPairError renders a per-pair failure as the same typed
// envelope a whole-request failure would get, minus the request ID
// (the surrounding response carries it).
func convertPairError(err error) *PairError {
	if err == nil {
		return nil
	}
	status, code := analysisErrorStatus(err)
	return &PairError{Status: status, Code: code, Message: err.Error()}
}

// schemaByName resolves the wire schema name.
func schemaByName(name string) (*field.Schema, error) {
	switch name {
	case "", "five":
		return field.IPv4FiveTuple(), nil
	case "four":
		return field.FourTuple(), nil
	case "paper":
		return field.PaperExample(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q", name)
	}
}

// parseInput lowers one PolicyInput through the frontend registry. The
// returned error keeps its type (frontend.ParseError, ErrUnknownFormat,
// ErrSchema survive the what-prefix wrapping) so writePolicyError can
// map it to the right code and diagnostics.
func parseInput(schema *field.Schema, in PolicyInput, what string) (*rule.Policy, error) {
	p, err := frontend.Parse(in.Format, schema, in.Text, frontend.Options{Chain: in.Chain})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return p, nil
}

// writePolicyError maps a parseInput failure onto the error envelope:
// unknown format names get the stable unsupported_format code, frontend
// parse failures get unparseable_policy with the positioned diagnostics
// attached, and schema mismatches (an iptables dump against the paper
// schema) are plain bad requests.
func writePolicyError(w http.ResponseWriter, err error) {
	var pe *frontend.ParseError
	switch {
	case errors.Is(err, frontend.ErrUnknownFormat):
		writeError(w, http.StatusBadRequest, CodeUnsupportedFormat, err)
	case errors.As(err, &pe):
		writeErrorDiags(w, http.StatusBadRequest, CodeUnparseablePolicy, err, pe.Diagnostics)
	case errors.Is(err, frontend.ErrSchema):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
	default:
		writeError(w, http.StatusBadRequest, CodeUnparseablePolicy, err)
	}
}

func (s *Server) diff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := schemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	pa, err := parseInput(schema, req.A, "policy a")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	pb, err := parseInput(schema, req.B, "policy b")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	report, stats, err := s.eng.DiffPolicies(r.Context(), pa, pb)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if !stats.ReportCached {
		// Cached reports carry the timings of the run that produced them;
		// feeding those into the phase histograms again would double-count.
		s.observeTiming(report.Timing)
	}
	resp := ConvertReport(schema, report)
	resp.Cached = stats.ReportCached
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) crossCompare(w http.ResponseWriter, r *http.Request) {
	var req CrossCompareRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := schemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	if len(req.Policies) < 2 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("need at least 2 policies, got %d", len(req.Policies)))
		return
	}
	if len(req.Policies) > maxCrossPolicies {
		writeError(w, http.StatusBadRequest, CodeTooManyPolicies,
			fmt.Errorf("at most %d policies per cross-comparison, got %d", maxCrossPolicies, len(req.Policies)))
		return
	}
	names := make([]string, len(req.Policies))
	seen := make(map[string]bool, len(req.Policies))
	policies := make([]*rule.Policy, len(req.Policies))
	for i, np := range req.Policies {
		name := np.Name
		if name == "" {
			name = fmt.Sprintf("policy%d", i+1)
		}
		if seen[name] {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("duplicate policy name %q", name))
			return
		}
		seen[name] = true
		names[i] = name
		p, err := parseInput(schema, np.Policy, fmt.Sprintf("policy %q", name))
		if err != nil {
			writePolicyError(w, err)
			return
		}
		policies[i] = p
	}

	start := time.Now()
	// Compilation happens inside each pair (deduplicated by the compile
	// cache, so each policy is still constructed exactly once): a policy
	// whose construction trips the budget fails only its own pairs,
	// and the matrix comes back partial instead of empty.
	pairs, err := s.eng.CrossComparePolicies(r.Context(), policies)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	resp := CrossCompareResponse{
		Policies:      names,
		Pairs:         make([]CrossPair, 0, len(pairs)),
		AllEquivalent: true,
		ElapsedMillis: float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, pr := range pairs {
		cell := CrossPair{
			A: names[pr.I],
			B: names[pr.J],
		}
		if pr.Err != nil {
			cell.Error = convertPairError(pr.Err)
			resp.FailedPairs++
			// An unanswered pair means the matrix cannot vouch for full
			// equivalence.
			resp.AllEquivalent = false
			resp.Pairs = append(resp.Pairs, cell)
			continue
		}
		cell.Equivalent = pr.Report.Equivalent()
		for _, d := range pr.Report.Discrepancies {
			cell.Discrepancies = append(cell.Discrepancies, ConvertDiscrepancy(schema, d))
		}
		if !cell.Equivalent {
			resp.AllEquivalent = false
		}
		resp.Pairs = append(resp.Pairs, cell)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) impact(w http.ResponseWriter, r *http.Request) {
	var req ImpactRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := schemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	before, err := parseInput(schema, req.Before, "before")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	if !req.After.IsZero() == (len(req.Edits) > 0) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("provide exactly one of after and edits"))
		return
	}
	var (
		after  *rule.Policy
		report *compare.Report
		st     engine.EditStats
	)
	if !req.After.IsZero() {
		after, err = parseInput(schema, req.After, "after")
		if err != nil {
			writePolicyError(w, err)
			return
		}
		report, st.DiffStats, err = s.eng.DiffPolicies(r.Context(), before, after)
	} else {
		edits := make([]impact.Edit, 0, len(req.Edits))
		for i, line := range req.Edits {
			e, err := impact.ParseEdit(schema, line)
			if err != nil {
				writeError(w, http.StatusBadRequest, CodeUnparseablePolicy,
					fmt.Errorf("edit %d: %v", i+1, err))
				return
			}
			edits = append(edits, e)
		}
		// The edits path goes through the incremental pipeline: the
		// after-FDD resumes the before policy's construction from a
		// checkpoint when possible, and the response says whether it did.
		after, report, st, err = s.eng.ImpactEdits(r.Context(), before, edits)
	}
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if !st.ReportCached {
		s.observeTiming(report.Timing)
	}
	resp := ConvertImpact(impact.FromReport(before, after, report))
	resp.Incremental = st.Incremental
	resp.RulesReappended = st.RulesReappended
	writeJSON(w, http.StatusOK, resp)
}

// audit is POST /v1/audit: /v1/analyze's findings without severity and
// source, the semantic redundancy check only on request.
func (s *Server) audit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if !decodeInto(w, r, &req) {
		return
	}
	_, findings, ok := s.analysisFindings(w, r, req.Schema, req.Policy, req.Complete)
	if !ok {
		return
	}
	var resp AuditResponse
	for _, f := range findings {
		resp.Findings = append(resp.Findings, Finding{Kind: f.Kind, Rules: f.Rules, Detail: f.Detail})
	}
	writeJSON(w, http.StatusOK, resp)
}

// analyzeSeverity grades a finding kind: findings that mean traffic is
// decided by a rule the author cannot see firing (shadowing, a rule
// that is never a first match) are errors, ordering subtleties and
// proven dead weight are warnings, pairwise redundancy hints are info.
func analyzeSeverity(kind string) string {
	switch kind {
	case "shadowing", "never-first-match":
		return "error"
	case "generalization", "correlation", "redundant":
		return "warning"
	default:
		return "info"
	}
}

// analysisFindings lowers a policy input, runs the engine's analysis on
// it and renders the findings: the pairwise anomalies, then the
// never-first-match rules, then the redundant rules in removal order.
// On failure it writes the error response and returns ok false.
func (s *Server) analysisFindings(w http.ResponseWriter, r *http.Request, schemaName string,
	in PolicyInput, complete bool) (p *rule.Policy, out []AnalyzeFinding, ok bool) {
	schema, err := schemaByName(schemaName)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return nil, nil, false
	}
	if p, err = parseInput(schema, in, "policy"); err != nil {
		writePolicyError(w, err)
		return nil, nil, false
	}
	a, err := s.eng.Analyze(r.Context(), p, complete)
	if err != nil {
		writeAnalysisError(w, err)
		return nil, nil, false
	}
	for _, f := range ConvertAnomalies(p, a.Anomalies) {
		out = append(out, AnalyzeFinding{
			Kind:     f.Kind,
			Severity: analyzeSeverity(f.Kind),
			Source:   "pairwise",
			Rules:    f.Rules,
			Detail:   f.Detail,
		})
	}
	exact := func(kind, what string, rules []int) {
		for _, i := range rules {
			out = append(out, AnalyzeFinding{
				Kind:     kind,
				Severity: analyzeSeverity(kind),
				Source:   "exact",
				Rules:    []int{i + 1},
				Detail:   fmt.Sprintf("rule %d is %s: %s", i+1, what, rule.FormatRule(schema, p.Rules[i])),
			})
		}
	}
	exact("never-first-match", "never a first match", a.NeverFirstMatch)
	exact("redundant", "semantically redundant", a.Redundant)
	return p, out, true
}

// analyze is POST /v1/analyze: the single-policy health report. It runs
// the pairwise anomaly taxonomy and the exact FDD-based checks
// (never-first-match, semantic redundancy) over the lowered policy —
// whatever format it arrived in — and profiles its complexity.
func (s *Server) analyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeInto(w, r, &req) {
		return
	}
	p, findings, ok := s.analysisFindings(w, r, req.Schema, req.Policy, true)
	if !ok {
		return
	}
	format := req.Policy.Format
	if format == "" {
		format = frontend.DefaultFormat
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Format:     format,
		Findings:   findings,
		Policy:     rule.FormatPolicy(p),
		Complexity: complexityOf(p),
	})
}

// complexityOf profiles the lowered policy — the "Rules in Play"-style
// counts: how many rules, and how finely each field is cut.
func complexityOf(p *rule.Policy) Complexity {
	schema := p.Schema
	c := Complexity{Rules: len(p.Rules), Fields: schema.NumFields()}
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		full := interval.SetFromInterval(f.Domain)
		fc := FieldComplexity{Name: f.Name}
		for _, rl := range p.Rules {
			s := rl.Pred[fi]
			fc.Intervals += s.NumIntervals()
			if !s.Equal(full) {
				fc.ConstrainedRules++
			}
		}
		c.Intervals += fc.Intervals
		c.PerField = append(c.PerField, fc)
	}
	return c
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := schemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	p, err := parseInput(schema, req.Policy, "policy")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	q, err := query.Parse(schema, req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	result, err := query.RunPolicy(p, q)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err)
		return
	}
	resp := QueryResponse{Empty: result.Empty()}
	if !resp.Empty {
		resp.Values = rule.FormatValueSet(schema.Field(q.Select), result)
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseDecisions validates the wire decision map: keys must be canonical
// 1-based decimal row numbers — "01", "+1", or " 1" would otherwise
// alias row 1 and silently overwrite each other's decisions — and no two
// keys may target the same row.
func parseDecisions(decisions map[string]string) (map[int]rule.Decision, error) {
	out := make(map[int]rule.Decision, len(decisions))
	for key, decText := range decisions {
		row, err := strconv.Atoi(key)
		if err != nil || row < 1 || strconv.Itoa(row) != key {
			return nil, fmt.Errorf("bad decision row %q (rows are 1-based decimal integers)", key)
		}
		if _, dup := out[row]; dup {
			return nil, fmt.Errorf("duplicate decision for row %d", row)
		}
		dec, err := rule.ParseDecision(decText)
		if err != nil {
			return nil, err
		}
		out[row] = dec
	}
	return out, nil
}

func (s *Server) resolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := schemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	pa, err := parseInput(schema, req.A, "policy a")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	pb, err := parseInput(schema, req.B, "policy b")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	decisions, err := parseDecisions(req.Decisions)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// Going through the engine means the same cached report backs
	// /v1/diff and /v1/resolve for one pair, so the 1-based row numbers
	// clients took from the diff stay valid here.
	report, stats, err := s.eng.DiffPolicies(r.Context(), pa, pb)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if !stats.ReportCached {
		s.observeTiming(report.Timing)
	}
	plan := resolve.NewPlanFromReport(pa, pb, report)
	for row, dec := range decisions {
		if err := plan.Resolve(row-1, dec); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	if !plan.Resolved() {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("%d discrepancies, not all resolved", len(plan.Report.Discrepancies)))
		return
	}
	var final *rule.Policy
	switch req.Method {
	case "", "fdd", "1":
		final, err = plan.Method1Context(r.Context())
	case "a":
		final, err = plan.Method2Context(r.Context(), true)
	case "b":
		final, err = plan.Method2Context(r.Context(), false)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("unknown method %q", req.Method))
		return
	}
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if err := plan.VerifyContext(r.Context(), final); err != nil {
		writeAnalysisError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ResolveResponse{
		Policy: rule.FormatPolicy(final),
		Rows:   len(plan.Report.Discrepancies),
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header can only be logged; for these small
	// bodies they do not occur in practice.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the v1 error envelope. The request ID was stamped
// onto the response headers by the middleware before the handler ran, so
// it is read back from there.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorDiags(w, status, code, err, nil)
}

// writeErrorDiags is writeError with positioned parse diagnostics
// attached to the envelope (frontend parse failures).
func writeErrorDiags(w http.ResponseWriter, status int, code string, err error, diags []frontend.Diagnostic) {
	detail := ErrorDetail{
		Code:        code,
		Message:     err.Error(),
		RequestID:   w.Header().Get("X-Request-ID"),
		Diagnostics: diags,
	}
	writeJSON(w, status, Error{Err: detail})
}
