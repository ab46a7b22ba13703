package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"diversefw/internal/api"
	"diversefw/internal/field"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// Request kinds, one per endpoint the workloads drive.
const (
	kindDiff    = "diff"
	kindImpact  = "impact"
	kindAnalyze = "analyze"
)

// Request is one generated request body plus what the oracle needs to
// check its response: the two policies of a diff, the before and after
// policies of an edit script, or the single policy of an analysis. The
// policies are the benchmark's own; the server only sees the body.
type Request struct {
	Body []byte
	A, B *rule.Policy
}

// Workload is one named traffic mix: the endpoint, the pool of request
// bodies the closed loop draws from in order, and the requests that
// prime the server's caches before timing starts.
type Workload struct {
	Name string
	Kind string
	Path string
	// Prime holds /v1/diff requests sent after /healthz answers and
	// before the timed window; their time counts toward setup_s.
	Prime []Request
	// Pool holds the timed requests. Request n of the run uses
	// Pool[n % len(Pool)] when Cycle is set (the same bodies re-posted),
	// and Pool[n] otherwise; a non-cycling workload ends its window
	// early if the pool runs out, so no body is ever sent twice.
	Pool  []Request
	Cycle bool
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"diverse_cold", "resubmit_warm", "edit_impact", "analyze_audit"}

// Workload sizes. The pools of the non-cycling workloads hold about
// three times the requests a run completes at the parent commit, so a
// faster program still runs the full window.
//
// Every workload builds its requests from a fixed family of base
// policies, the same for every seed and visited in the same order; the
// seed picks what each request changes (which base rule it lacks, which
// edits a script makes). Base policies, and the redesigns of
// diverse_cold, differ up to tenfold in cost, so drawing them from the
// seed would make a run's cost hinge on which ones it drew, and the
// spread between seeds would measure that rather than the program.
const (
	coldRules        = 661 // the paper's larger real-life firewall
	coldFamily       = 32
	coldOrderingErrs = 8
	coldMissingRules = 2
	coldPool         = 400
	warmRules        = 1000
	warmPairs        = 3
	impactRules      = 661
	impactFamily     = 8
	impactPool       = 6000
	impactMaxEdits   = 3
	analyzeRules     = 40
	analyzeFamily    = 32
	analyzePool      = 1000
	wireSchema       = "five"
)

// Seed streams keep the draws of different purposes independent.
const (
	streamColdBase = iota + 1
	streamColdDrop
	streamColdErrors
	streamWarmDrop
	streamImpactBase
	streamImpactDonor
	streamImpactDrop
	streamImpactEdits
	streamAnalyzeBase
	streamAnalyzeDrop
)

// familySeed is the seed the fixed family's base policies come from.
const familySeed = 0x5eed

// schema is the packet schema of every generated policy ("five" on the
// wire).
var schema = field.IPv4FiveTuple()

// mix derives the seed of item i of a stream from the run seed, so each
// item is a pure function of (seed, stream, i) and pools can grow without
// changing earlier items (splitmix64 finalizer).
func mix(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<63 - 1))
}

// buildWorkload generates every request of the named workload from seed.
func buildWorkload(name string, seed int64) (*Workload, error) {
	switch name {
	case "diverse_cold":
		return diverseCold(seed, coldPool), nil
	case "resubmit_warm":
		return resubmitWarm(seed), nil
	case "edit_impact":
		return editImpact(seed, impactPool)
	case "analyze_audit":
		return analyzeAudit(seed, analyzePool), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
}

func text(p *rule.Policy) api.PolicyInput { return api.PolicyInput{Text: rule.FormatPolicy(p)} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

func diffRequest(a, b *rule.Policy) Request {
	body := mustJSON(api.DiffRequest{Schema: wireSchema, A: text(a), B: text(b)})
	return Request{Body: body, A: a, B: b}
}

// generate builds n items, item i from gen(i).
func generate[T any](n int, gen func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

// dropper removes one rule per visit from each base policy of a family:
// visit c of base b drops rule perm[b][c], so a base's visits within a
// run never produce the same policy twice. The catch-all is never
// dropped, so every result stays comprehensive.
type dropper struct{ perms [][]int }

func newDropper(seed int64, stream uint64, bases []*rule.Policy) dropper {
	d := dropper{perms: make([][]int, len(bases))}
	for b, p := range bases {
		d.perms[b] = rand.New(rand.NewSource(mix(seed, stream, uint64(b)))).Perm(p.Size() - 1)
	}
	return d
}

// rule is the index of the rule visit c of base b drops; visits past
// the base's rule count wrap around.
func (d dropper) rule(b, c int) int { return d.perms[b][c%len(d.perms[b])] }

// drop returns base b without the rule of its visit c.
func (d dropper) drop(bases []*rule.Policy, b, c int) *rule.Policy {
	p, err := bases[b].DeleteRule(d.rule(b, c))
	if err != nil {
		panic(err) // the index comes from the policy's own range
	}
	return p
}

// diverseCold is the paper's Section 8.1 use: each request diffs a
// real-life reference policy against a redesign of it carrying ordering
// errors and missing rules (synth.InjectErrors). Visit c of family base
// b pairs the base with its c-th fixed redesign, and the seed picks one
// base rule to leave out of both sides, so no policy and no pair repeats
// within a run and both engine caches miss on every request.
func diverseCold(seed int64, n int) *Workload {
	w := &Workload{Name: "diverse_cold", Kind: kindDiff, Path: "/v1/diff"}
	bases := generate(coldFamily, func(b int) *rule.Policy {
		return synth.RealLife(coldRules, mix(familySeed, streamColdBase, uint64(b)))
	})
	d := newDropper(seed, streamColdDrop, bases)
	w.Pool = generate(n, func(i int) Request {
		b, c := i%coldFamily, i/coldFamily
		faulty, log := synth.InjectErrors(bases[b], synth.ErrorConfig{
			OrderingErrors: coldOrderingErrs,
			MissingRules:   coldMissingRules,
			Seed:           mix(familySeed, streamColdErrors, uint64(i)),
		})
		r := d.rule(b, c)
		if at := slices.Index(origIndices(bases[b].Size(), log), r); at >= 0 {
			var err error
			if faulty, err = faulty.DeleteRule(at); err != nil {
				panic(err) // at indexes the faulty policy
			}
		}
		return diffRequest(d.drop(bases, b, c), faulty)
	})
	return w
}

// origIndices maps each rule of an InjectErrors result to its index in
// the reference, by replaying the log: moves to the front in injection
// order, then deletions.
func origIndices(n int, log synth.ErrorLog) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for _, m := range log.MovedToFront {
		at := slices.Index(idx, m)
		idx = append([]int{m}, slices.Delete(idx, at, at+1)...)
	}
	for _, del := range log.Deleted {
		at := slices.Index(idx, del)
		idx = slices.Delete(idx, at, at+1)
	}
	return idx
}

// resubmitWarm is a CI re-run: the same few 1,000-rule pairs re-posted
// after priming, so every timed request is a report-cache hit. The bases
// are synth.Synthetic seeds 1 and 2, 3 and 4, 5 and 6 (the first is
// fwbench's synthetic pair); each side lacks one seed-chosen rule.
func resubmitWarm(seed int64) *Workload {
	w := &Workload{Name: "resubmit_warm", Kind: kindDiff, Path: "/v1/diff", Cycle: true}
	bases := generate(2*warmPairs, func(b int) *rule.Policy {
		return synth.Synthetic(synth.Config{Rules: warmRules, Seed: int64(b + 1)})
	})
	d := newDropper(seed, streamWarmDrop, bases)
	for k := 0; k < warmPairs; k++ {
		r := diffRequest(d.drop(bases, 2*k, 0), d.drop(bases, 2*k+1, 0))
		w.Prime = append(w.Prime, r)
		w.Pool = append(w.Pool, r)
	}
	return w
}

// editImpact is Section 8.2 change impact: a few resident policies
// receive seeded edit scripts on /v1/impact, request i editing policy
// i mod impactFamily. Edit positions lean to the tail of the policy
// (see editClasses).
func editImpact(seed int64, n int) (*Workload, error) {
	w := &Workload{Name: "edit_impact", Kind: kindImpact, Path: "/v1/impact"}
	bases := generate(impactFamily, func(b int) *rule.Policy {
		return synth.RealLife(impactRules, mix(familySeed, streamImpactBase, uint64(b)))
	})
	d := newDropper(seed, streamImpactDrop, bases)
	type resident struct {
		before, donor *rule.Policy
		prefix        []byte
	}
	res := make([]resident, impactFamily)
	for k := range res {
		before := d.drop(bases, k, 0)
		donor := synth.RealLife(impactRules, mix(familySeed, streamImpactDonor, uint64(k)))
		// Priming compiles the before policy into the server's cache.
		w.Prime = append(w.Prime, diffRequest(before, before))
		// Bodies editing one policy share its encoding; only the edits
		// differ, so bodies are assembled around one encoding of it.
		prefix := mustJSON(struct {
			Schema string          `json:"schema"`
			Before api.PolicyInput `json:"before"`
		}{wireSchema, text(before)})
		prefix = append(prefix[:len(prefix)-1], `,"edits":`...)
		res[k] = resident{before, donor, prefix}
	}
	errs := 0
	w.Pool = generate(n, func(i int) Request {
		r := res[i%impactFamily]
		rng := rand.New(rand.NewSource(mix(seed, streamImpactEdits, uint64(i))))
		lines, after, err := editScript(rng, r.before, r.donor, i/impactFamily)
		if err != nil {
			errs++
			return Request{}
		}
		body := append(append(append([]byte(nil), r.prefix...), mustJSON(lines)...), '}')
		return Request{Body: body, A: r.before, B: after}
	})
	if errs > 0 {
		return nil, fmt.Errorf("edit_impact: %d edit scripts left an invalid policy", errs)
	}
	return w, nil
}

// Edit position classes.
const (
	editHead = iota // the first tenth of the policy
	editMiddle
	editTail // the last tenth
)

// editClasses fixes the share of edits per position class: 7 in 10 in
// the last tenth, where administrators add most rules, 2 in the middle
// and 1 in the first tenth. A head edit invalidates every checkpoint and
// costs tens of times a tail edit, so the classes follow a fixed cycle
// rather than a random draw, and every run gets the same mix.
var editClasses = [10]int{editTail, editTail, editMiddle, editTail, editTail, editHead, editTail, editTail, editMiddle, editTail}

// editScript builds the edit script of a base's visit-th request and
// applies it itself, so the oracle's after policy never comes from the
// code under test. The script has 1 + visit%impactMaxEdits edits; edit
// k takes slot visit*impactMaxEdits+k of fixed cycles of position
// classes and kinds (insert, replace, delete, swap), and the seed picks
// the position within the class and the inserted rules. The trailing
// catch-all is never touched, so every edited policy stays
// comprehensive.
func editScript(rng *rand.Rand, before, donor *rule.Policy, visit int) ([]string, *rule.Policy, error) {
	rules := append([]rule.Rule(nil), before.Rules...)
	var lines []string
	for k := 0; k < 1+visit%impactMaxEdits; k++ {
		slot := visit*impactMaxEdits + k
		body := len(rules) - 1 // rules before the catch-all
		pos := editPosition(rng, body, editClasses[slot%len(editClasses)])
		switch slot % 4 {
		case 0: // insert before rule pos (1-based pos+1)
			r := donor.Rules[rng.Intn(donor.Size()-1)]
			rules = append(rules[:pos], append([]rule.Rule{r}, rules[pos:]...)...)
			lines = append(lines, fmt.Sprintf("insert %d: %s", pos+1, rule.FormatRule(schema, r)))
		case 1:
			r := donor.Rules[rng.Intn(donor.Size()-1)]
			rules[pos] = r
			lines = append(lines, fmt.Sprintf("replace %d: %s", pos+1, rule.FormatRule(schema, r)))
		case 2:
			rules = append(rules[:pos], rules[pos+1:]...)
			lines = append(lines, fmt.Sprintf("delete %d", pos+1))
		default:
			j := editPosition(rng, body, editTail)
			if j == pos {
				j = (pos + 1) % body
			}
			rules[pos], rules[j] = rules[j], rules[pos]
			lines = append(lines, fmt.Sprintf("swap %d %d", pos+1, j+1))
		}
	}
	after, err := rule.NewPolicy(before.Schema, rules)
	return lines, after, err
}

// editPosition picks a 0-based rule index below n within the class.
func editPosition(rng *rand.Rand, n, class int) int {
	tenth := max(n/10, 1)
	switch class {
	case editTail:
		return n - 1 - rng.Intn(tenth)
	case editMiddle:
		return tenth + rng.Intn(max(n-2*tenth, 1))
	default:
		return rng.Intn(tenth)
	}
}

// analyzeAudit sends small real-life policies to /v1/analyze: the
// anomaly and redundancy analyses, which do not go through the engine.
// Each is a family base without one seed-chosen rule.
func analyzeAudit(seed int64, n int) *Workload {
	w := &Workload{Name: "analyze_audit", Kind: kindAnalyze, Path: "/v1/analyze"}
	bases := generate(analyzeFamily, func(b int) *rule.Policy {
		return synth.RealLife(analyzeRules, mix(familySeed, streamAnalyzeBase, uint64(b)))
	})
	d := newDropper(seed, streamAnalyzeDrop, bases)
	w.Pool = generate(n, func(i int) Request {
		p := d.drop(bases, i%analyzeFamily, i/analyzeFamily)
		return Request{Body: mustJSON(api.AnalyzeRequest{Schema: wireSchema, Policy: text(p)}), A: p}
	})
	return w
}

// prefix returns a workload of the run's first n requests, in order and
// without cycling, plus the priming requests, keeping only their bodies.
func (w *Workload) prefix(n int) *Workload {
	sub := &Workload{Name: w.Name, Kind: w.Kind, Path: w.Path}
	for _, p := range w.Prime {
		sub.Prime = append(sub.Prime, Request{Body: p.Body})
	}
	for i := 0; i < n; i++ {
		r, ok := w.request(i)
		if !ok {
			break
		}
		sub.Pool = append(sub.Pool, Request{Body: r.Body})
	}
	return sub
}

// request returns the body for the run's n-th request, or false when a
// non-cycling pool is exhausted.
func (w *Workload) request(n int) (*Request, bool) {
	if w.Cycle {
		return &w.Pool[n%len(w.Pool)], true
	}
	if n >= len(w.Pool) {
		return nil, false
	}
	return &w.Pool[n], true
}
