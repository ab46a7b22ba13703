// Package api defines the JSON wire types and conversions for the
// analysis service (cmd/fwserved): policy diffing, change impact,
// auditing, analysis, and queries over HTTP. Policies travel as
// PolicyInput values — a bare string in the native rule text format, or
// a format-tagged object lowered through internal/frontend (iptables,
// nftables, cloud security-group JSON); results carry field values in
// the human-readable notation of the reports (CIDR blocks, port ranges,
// "!..." complements).
package api

import (
	"bytes"
	"encoding/json"
	"fmt"

	"diversefw/internal/admission"
	"diversefw/internal/anomaly"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/impact"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
)

// PolicyInput is how a policy arrives on the wire, everywhere one does:
// either a bare JSON string (the native rule text format — the original
// v1 contract, still valid) or a format-tagged object
// {"format": "nftables", "text": "..."} lowered through the frontend
// registry. Chain selects the chain for multi-chain formats (iptables,
// nftables). A PolicyInput marshals back to the bare-string form when
// only Text is set, so native-only clients see the original wire shape.
type PolicyInput struct {
	// Format names a registered frontend; empty means "native".
	Format string `json:"format,omitempty"`
	// Text is the policy source in that format.
	Text string `json:"text"`
	// Chain selects the chain for iptables/nftables inputs.
	Chain string `json:"chain,omitempty"`
}

// UnmarshalJSON accepts the bare string or the strict object form
// (unknown keys rejected — the outer decoder's DisallowUnknownFields
// does not see inside a custom unmarshaler).
func (p *PolicyInput) UnmarshalJSON(data []byte) error {
	trim := bytes.TrimLeft(data, " \t\r\n")
	if len(trim) > 0 && (trim[0] == '"' || bytes.Equal(trim, []byte("null"))) {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*p = PolicyInput{Text: s}
		return nil
	}
	type wire PolicyInput // plain struct: no recursion into this method
	var obj wire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return fmt.Errorf("policy must be a string or a {format, text, chain} object: %v", err)
	}
	*p = PolicyInput(obj)
	return nil
}

// MarshalJSON emits the bare string whenever the object form adds
// nothing, keeping native round-trips byte-identical to the old wire.
func (p PolicyInput) MarshalJSON() ([]byte, error) {
	if p.Format == "" && p.Chain == "" {
		return json.Marshal(p.Text)
	}
	type wire PolicyInput
	return json.Marshal(wire(p))
}

// IsZero reports whether the input was absent (optional fields like
// ImpactRequest.After cannot compare against "" anymore).
func (p PolicyInput) IsZero() bool { return p == PolicyInput{} }

// DiffRequest asks for all functional discrepancies between two policies.
type DiffRequest struct {
	// Schema selects the packet schema: five, four, or paper.
	Schema string `json:"schema"`
	// A and B are the policies to compare.
	A PolicyInput `json:"a"`
	B PolicyInput `json:"b"`
}

// Discrepancy is one region of disagreement with both decisions.
type Discrepancy struct {
	// Fields maps field names to value sets in rule text notation.
	Fields map[string]string `json:"fields"`
	A      string            `json:"a"`
	B      string            `json:"b"`
}

// DiffResponse reports the comparison result.
type DiffResponse struct {
	Equivalent    bool          `json:"equivalent"`
	Discrepancies []Discrepancy `json:"discrepancies,omitempty"`
	// Timing breaks the pipeline into the paper's three phases, in
	// milliseconds. The served diff walk does not shape, so ShapeMillis
	// is always 0; it stays for wire compatibility.
	ConstructMillis float64 `json:"constructMillis"`
	ShapeMillis     float64 `json:"shapeMillis"`
	CompareMillis   float64 `json:"compareMillis"`
	// Cached reports that the result was served from the engine's report
	// cache; the timings then describe the run that produced it.
	Cached bool `json:"cached,omitempty"`
}

// ImpactRequest asks for the functional impact of a policy change. The
// after policy is given either verbatim (After) or as an edit script
// applied to the before policy (Edits — one edit per entry in the
// fwimpact edit syntax, see docs/FORMATS.md); exactly one of the two.
type ImpactRequest struct {
	Schema string      `json:"schema"`
	Before PolicyInput `json:"before"`
	After  PolicyInput `json:"after,omitempty"`
	Edits  []string    `json:"edits,omitempty"`
}

// Attribution explains one impacted region.
type Attribution struct {
	Region Discrepancy `json:"region"`
	// BeforeRule and AfterRule are 1-based indices of the first-match
	// rules deciding the region on each side.
	BeforeRule int `json:"beforeRule"`
	AfterRule  int `json:"afterRule"`
}

// ImpactResponse reports a change-impact analysis.
type ImpactResponse struct {
	NoImpact     bool          `json:"noImpact"`
	Attributions []Attribution `json:"attributions,omitempty"`
	// Incremental reports that the edits path built the after-FDD by
	// resuming the before policy's construction from a checkpoint instead
	// of from scratch; RulesReappended is how many rules that re-appended.
	// Both are omitted on the verbatim-after path and on full cache hits.
	Incremental     bool `json:"incremental,omitempty"`
	RulesReappended int  `json:"rulesReappended,omitempty"`
}

// AuditRequest asks for single-policy findings.
type AuditRequest struct {
	Schema string      `json:"schema"`
	Policy PolicyInput `json:"policy"`
	// Complete additionally runs the semantic redundancy check.
	Complete bool `json:"complete"`
}

// Finding is one audit result.
type Finding struct {
	Kind string `json:"kind"`
	// Rules lists the 1-based indices involved.
	Rules []int `json:"rules"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
}

// AuditResponse lists audit findings.
type AuditResponse struct {
	Findings []Finding `json:"findings,omitempty"`
}

// AnalyzeRequest asks for the single-policy health report of POST
// /v1/analyze: the pairwise anomaly taxonomy, the exact FDD-based
// checks, and a complexity profile — for a policy in any registered
// format.
type AnalyzeRequest struct {
	Schema string      `json:"schema"`
	Policy PolicyInput `json:"policy"`
}

// AnalyzeFinding is one typed analysis result.
type AnalyzeFinding struct {
	// Kind is the finding type: shadowing, generalization, correlation,
	// redundancy (pairwise); never-first-match, redundant (exact).
	Kind string `json:"kind"`
	// Severity is error, warning, or info.
	Severity string `json:"severity"`
	// Source says which analysis produced it: "pairwise" (the rule-pair
	// taxonomy) or "exact" (FDD-based semantic checks).
	Source string `json:"source"`
	// Rules lists the 1-based rule indices involved.
	Rules []int `json:"rules"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
}

// FieldComplexity profiles one field of the policy.
type FieldComplexity struct {
	Name string `json:"name"`
	// ConstrainedRules counts rules that constrain the field below its
	// full domain.
	ConstrainedRules int `json:"constrainedRules"`
	// Intervals totals the intervals rules use on the field — the
	// "Rules in Play"-style measure of how finely the field is cut.
	Intervals int `json:"intervals"`
}

// Complexity is the /v1/analyze profile of the lowered policy.
type Complexity struct {
	// Rules is the rule count of the lowered policy (catch-alls
	// synthesized by a frontend included).
	Rules int `json:"rules"`
	// Fields is the schema's field count.
	Fields int `json:"fields"`
	// Intervals totals interval counts over all rules and fields.
	Intervals int               `json:"intervals"`
	PerField  []FieldComplexity `json:"perField"`
}

// AnalyzeResponse is the /v1/analyze report. Findings come from both
// sources; a clean policy has none.
type AnalyzeResponse struct {
	// Format echoes the frontend that lowered the input.
	Format   string           `json:"format"`
	Findings []AnalyzeFinding `json:"findings,omitempty"`
	// Policy is the lowered policy in the native rule text format — what
	// the finding rule indices refer to.
	Policy     string     `json:"policy"`
	Complexity Complexity `json:"complexity"`
}

// ResolveRequest runs the resolution phase over HTTP: diff two policies,
// apply the agreed decisions, and return the generated final firewall.
// Decisions maps 1-based discrepancy row numbers (as returned by
// /v1/diff for the same pair — the row order is deterministic) to the
// agreed decision ("accept", "discard", ...); every row must be resolved.
type ResolveRequest struct {
	Schema    string            `json:"schema"`
	A         PolicyInput       `json:"a"`
	B         PolicyInput       `json:"b"`
	Decisions map[string]string `json:"decisions"`
	// Method is "fdd" (Method 1, default), "a", or "b" (Method 2).
	Method string `json:"method,omitempty"`
}

// ResolveResponse carries the verified final firewall.
type ResolveResponse struct {
	// Policy is the final firewall in the policy text format, verified
	// against the resolved semantics before being returned.
	Policy string `json:"policy"`
	// Rows is the number of discrepancies that were resolved.
	Rows int `json:"rows"`
}

// QueryRequest runs a firewall query.
type QueryRequest struct {
	Schema string      `json:"schema"`
	Policy PolicyInput `json:"policy"`
	// Query is the textual form: "select <field> [where <cond>] decision <dec>".
	Query string `json:"query"`
}

// QueryResponse carries the projected value set in text notation.
type QueryResponse struct {
	Values string `json:"values"`
	Empty  bool   `json:"empty"`
}

// NamedPolicy is one entry of a cross-comparison: a policy input under
// a caller-chosen name the response refers back to.
type NamedPolicy struct {
	// Name identifies the policy in the response; defaults to "policyN"
	// (1-based position) when empty. Names must be unique.
	Name   string      `json:"name,omitempty"`
	Policy PolicyInput `json:"policy"`
}

// CrossCompareRequest asks for the pairwise discrepancy matrix of N
// policies over one schema (the paper's N-team cross comparison).
type CrossCompareRequest struct {
	Schema   string        `json:"schema"`
	Policies []NamedPolicy `json:"policies"`
}

// PairError is the typed failure entry of one pair in a
// cross-comparison or job result: the same status/code a whole-request
// failure would map to (a budget-tripped pair carries 422
// policy_too_complex), scoped to the single pair so the rest of the
// matrix still returns results.
type PairError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// CrossPair is one cell of the discrepancy matrix: the comparison of
// policies A and B (by name), in deterministic pair order. A pair that
// failed carries Error instead of a result; Equivalent is meaningless
// then.
type CrossPair struct {
	A             string        `json:"a"`
	B             string        `json:"b"`
	Equivalent    bool          `json:"equivalent"`
	Discrepancies []Discrepancy `json:"discrepancies,omitempty"`
	Error         *PairError    `json:"error,omitempty"`
}

// CrossCompareResponse reports the full matrix. The response is partial
// when FailedPairs > 0: failed pairs carry per-pair errors, completed
// pairs their results.
type CrossCompareResponse struct {
	// Policies lists the resolved names in request order.
	Policies []string `json:"policies"`
	// Pairs holds the N*(N-1)/2 comparisons ordered by (i, j).
	Pairs         []CrossPair `json:"pairs"`
	AllEquivalent bool        `json:"allEquivalent"`
	// FailedPairs counts pairs that returned an error instead of a
	// result.
	FailedPairs int `json:"failedPairs,omitempty"`
	// ElapsedMillis is the server-side wall time for compiling and
	// comparing, cache hits included.
	ElapsedMillis float64 `json:"elapsedMillis"`
}

// JobPairSpec names one explicit comparison pair of a batchdiff job, by
// the policy names used in the same request.
type JobPairSpec struct {
	// Name labels the pair in status responses; defaults to "A vs B".
	Name string `json:"name,omitempty"`
	A    string `json:"a"`
	B    string `json:"b"`
}

// JobSubmitRequest starts an async comparison job (POST /v1/jobs). Kind
// "crosscompare" (the default) compares every pair among the policies;
// "batchdiff" compares exactly the listed pairs.
type JobSubmitRequest struct {
	Kind     string        `json:"kind,omitempty"`
	Schema   string        `json:"schema"`
	Policies []NamedPolicy `json:"policies"`
	// Pairs is required for batchdiff and rejected for crosscompare.
	Pairs []JobPairSpec `json:"pairs,omitempty"`
}

// JobPair is one pair's current state in a job status. Exactly one of
// Equivalent and Error is set once Status is "ok" or "error".
type JobPair struct {
	Name   string `json:"name"`
	A      string `json:"a"`
	B      string `json:"b"`
	Status string `json:"status"` // pending | running | ok | error | skipped
	// Equivalent is present once the pair compared successfully.
	Equivalent    *bool         `json:"equivalent,omitempty"`
	Discrepancies []Discrepancy `json:"discrepancies,omitempty"`
	// Error is the pair's typed failure, same envelope as a synchronous
	// request would get (e.g. 422 policy_too_complex on a budget trip).
	Error         *PairError `json:"error,omitempty"`
	ElapsedMillis float64    `json:"elapsedMillis,omitempty"`
	// Attempts counts how many times the pair ran, the settling run
	// included (> 1 means transient failures were retried).
	Attempts int `json:"attempts,omitempty"`
	// Quarantined marks a pair that kept failing transiently until its
	// retry budget ran out and was isolated as an error entry.
	Quarantined bool `json:"quarantined,omitempty"`
}

// JobProgress counts a job's pairs by outcome; every field is monotonic
// non-decreasing while the job runs.
type JobProgress struct {
	Total   int `json:"total"`
	Settled int `json:"settled"`
	OK      int `json:"ok"`
	Errors  int `json:"errors"`
	Skipped int `json:"skipped"`
	// Quarantined counts the subset of Errors that exhausted their
	// retry budget on transient failures (poison pairs).
	Quarantined int `json:"quarantined"`
}

// JobStatusResponse is one job's snapshot: the POST /v1/jobs response
// (202), each GET /v1/jobs/{id} poll, and the DELETE result. Listings
// (GET /v1/jobs) omit Pairs.
type JobStatusResponse struct {
	ID       string      `json:"id"`
	Kind     string      `json:"kind"`
	Schema   string      `json:"schema"`
	State    string      `json:"state"` // queued | running | completed | canceled
	Policies []string    `json:"policies"`
	Progress JobProgress `json:"progress"`
	Pairs    []JobPair   `json:"pairs,omitempty"`
	TraceID  string      `json:"traceId"`
	// Timestamps are RFC 3339; started/finished are omitted until they
	// happen.
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`
}

// JobListResponse is the GET /v1/jobs body, newest job first.
type JobListResponse struct {
	Jobs []JobStatusResponse `json:"jobs"`
}

// Limits describes the server's request bounds (see /v1/version).
type Limits struct {
	MaxBodyBytes         int64 `json:"maxBodyBytes"`
	MaxCrossPolicies     int   `json:"maxCrossPolicies"`
	MaxJobPolicies       int   `json:"maxJobPolicies,omitempty"`
	RequestTimeoutMillis int64 `json:"requestTimeoutMillis,omitempty"`
}

// VersionResponse is the GET /v1/version introspection document.
type VersionResponse struct {
	GoVersion string `json:"goVersion"`
	// Revision is the VCS revision baked into the binary, when known.
	Revision string   `json:"revision,omitempty"`
	Schemas  []string `json:"schemas"`
	// Formats lists the registered policy input formats, native first.
	Formats []string `json:"formats"`
	Limits  Limits   `json:"limits"`
	// Cache is the engine's cache/singleflight snapshot.
	Cache engine.Stats `json:"cache"`
}

// CacheHealth is the cache readiness section of GET /healthz.
type CacheHealth struct {
	Ready          bool  `json:"ready"`
	CompileEntries int   `json:"compileEntries"`
	ReportEntries  int   `json:"reportEntries"`
	ResidentBytes  int64 `json:"residentBytes"`
}

// HealthResponse is the GET /healthz body. Status is "ok", "degraded"
// (admission control at capacity: arrivals queue or shed), or
// "draining" (shutdown in progress, new work rejected).
type HealthResponse struct {
	Status string `json:"status"`
	// SLO summarizes the objective store: "ok", "warn", or "burning"
	// (the worst multi-window burn status across objectives — see
	// GET /debug/slo for the per-objective breakdown).
	SLO string `json:"slo"`
	// Formats lists the registered policy input formats — readiness
	// includes knowing what the server can parse.
	Formats []string    `json:"formats"`
	Cache   CacheHealth `json:"cache"`
	// Admission is present when admission control is configured.
	Admission *admission.Stats `json:"admission,omitempty"`
	// Recovery is present when the job layer runs on a journaled store:
	// what the last startup's replay recovered, resumed, and tolerated.
	Recovery *jobs.RecoveryReport `json:"recovery,omitempty"`
}

// Machine-readable error codes carried in ErrorDetail.Code. These are
// part of the v1 contract: clients switch on the code, the message is
// for humans and may change.
const (
	// CodeBadRequest: malformed request (bad JSON, wrong method target,
	// invalid parameters).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method; the Allow header lists the
	// accepted one.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodePayloadTooLarge: request body exceeded the size limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeUnknownSchema: the schema name is not one the server knows.
	CodeUnknownSchema = "unknown_schema"
	// CodeUnparseablePolicy: a policy (or edit/query) failed to parse.
	// Frontend parse failures carry positioned diagnostics in
	// ErrorDetail.Diagnostics.
	CodeUnparseablePolicy = "unparseable_policy"
	// CodeUnsupportedFormat: a PolicyInput named a format no frontend is
	// registered for; the message lists the supported ones.
	CodeUnsupportedFormat = "unsupported_format"
	// CodeIncompletePolicy: a policy parsed but is not comprehensive —
	// some packet matches no rule, so no FDD exists for it.
	CodeIncompletePolicy = "incomplete_policy"
	// CodeTooManyPolicies: a cross-compare request exceeded the policy
	// count limit.
	CodeTooManyPolicies = "too_many_policies"
	// CodeUnprocessable: well-formed input the analysis rejects for
	// another semantic reason.
	CodeUnprocessable = "unprocessable"
	// CodeTimeout: the server's request timeout elapsed mid-analysis.
	CodeTimeout = "timeout"
	// CodeClientClosed: the client disconnected before the answer (the
	// status is the nginx 499 convention; only logs/metrics see it).
	CodeClientClosed = "client_closed"
	// CodeInternal: a server-side failure (recovered panic).
	CodeInternal = "internal"
	// CodePolicyTooComplex: the analysis exceeded the server's work
	// budget (FDD nodes, edge splits, bytes, or wall clock) — the
	// policy's diagram blows up past what this deployment will spend on
	// one request. 422.
	CodePolicyTooComplex = "policy_too_complex"
	// CodeServerOverloaded: admission control shed the request (queue
	// full, queue deadline, or draining). 503 with Retry-After.
	CodeServerOverloaded = "server_overloaded"
	// CodeClientOverLimit: this client already has the maximum number of
	// requests in flight. 429 with Retry-After.
	CodeClientOverLimit = "client_over_limit"
	// CodeJobNotFound: no job with the given ID (never submitted, or
	// already purged by the retention window). 404.
	CodeJobNotFound = "job_not_found"
	// CodeTooManyJobs: the job store is at capacity with live jobs. 429
	// with Retry-After.
	CodeTooManyJobs = "too_many_jobs"
)

// ErrorDetail is the machine-readable error object.
type ErrorDetail struct {
	// Code is one of the Code* constants.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes the X-Request-ID the response carries.
	RequestID string `json:"requestId,omitempty"`
	// Diagnostics carries positioned parse findings (line/column in the
	// submitted config) when Code is unparseable_policy and the policy
	// went through a frontend.
	Diagnostics []frontend.Diagnostic `json:"diagnostics,omitempty"`
}

// Error is the JSON error body for non-2xx responses:
// {"error": {"code": ..., "message": ..., "requestId": ...}}.
// (The pre-envelope top-level "message" alias was deprecated for one
// release and is gone.)
type Error struct {
	Err ErrorDetail `json:"error"`
}

// ConvertDiscrepancy renders a pipeline discrepancy into wire form.
func ConvertDiscrepancy(schema *field.Schema, d compare.Discrepancy) Discrepancy {
	out := Discrepancy{
		Fields: make(map[string]string, schema.NumFields()),
		A:      d.A.String(),
		B:      d.B.String(),
	}
	for fi, s := range d.Pred {
		f := schema.Field(fi)
		out.Fields[f.Name] = rule.FormatValueSet(f, s)
	}
	return out
}

// ConvertReport renders a full comparison report.
func ConvertReport(schema *field.Schema, r *compare.Report) DiffResponse {
	resp := DiffResponse{
		Equivalent:      r.Equivalent(),
		ConstructMillis: float64(r.Timing.Construct.Microseconds()) / 1000,
		ShapeMillis:     float64(r.Timing.Shape.Microseconds()) / 1000,
		CompareMillis:   float64(r.Timing.Compare.Microseconds()) / 1000,
	}
	for _, d := range r.Discrepancies {
		resp.Discrepancies = append(resp.Discrepancies, ConvertDiscrepancy(schema, d))
	}
	return resp
}

// ConvertImpact renders an impact analysis.
func ConvertImpact(im *impact.Impact) ImpactResponse {
	resp := ImpactResponse{NoImpact: im.None()}
	for _, a := range im.Attribute() {
		resp.Attributions = append(resp.Attributions, Attribution{
			Region:     ConvertDiscrepancy(im.Before.Schema, a.Discrepancy),
			BeforeRule: a.BeforeRule + 1,
			AfterRule:  a.AfterRule + 1,
		})
	}
	return resp
}

// ConvertAnomalies renders audit anomalies.
func ConvertAnomalies(p *rule.Policy, as []anomaly.Anomaly) []Finding {
	out := make([]Finding, 0, len(as))
	for _, a := range as {
		out = append(out, Finding{
			Kind:  a.Kind.String(),
			Rules: []int{a.I + 1, a.J + 1},
			Detail: fmt.Sprintf("%s (rule %d: %s; rule %d: %s)",
				a.Kind, a.I+1, rule.FormatRule(p.Schema, p.Rules[a.I]),
				a.J+1, rule.FormatRule(p.Schema, p.Rules[a.J])),
		})
	}
	return out
}
