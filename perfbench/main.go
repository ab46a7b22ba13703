// Command perfbench is the serving benchmark. It starts the real fwserved
// binary on a loopback port, drives one named workload over HTTP from a
// closed loop of two clients, checks every distinct response with an
// independent oracle, and prints end-to-end metrics. With -trace 1 it
// also replays the same generated requests in process, with a span
// around each layer's public call, and prints per-layer metrics instead.
//
// Usage, from the repository root (perfbench/run.sh builds both
// binaries and passes -fwserved):
//
//	perfbench -workload diverse_cold -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics. The exit code is 0 only when the
// oracle found no wrong result and the workload-shape guard held.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Load shape: two closed-loop clients, one keep-alive connection each,
// no think time. The callers are CI pipelines and dashboards that each
// wait for their reply.
const clients = 2

// Set-ups per run, split between before the window and after it: at
// least minSetups, then more while they total less than setupBudget, up
// to maxSetups.
const (
	minSetups   = 3
	setupBudget = time.Second
	maxSetups   = 100
)

// outDir, under the working directory (the repository root), holds the
// provenance and span files of each run.
const outDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	fwserved string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: diverse_cold, resubmit_warm, edit_impact, or analyze_audit")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	fs.StringVar(&cfg.fwserved, "fwserved", "", "path to the fwserved binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.fwserved == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -fwserved, -seconds >= 1, and -trace 0 or 1")
		return 2
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// say prints one human-readable line to standard output, ahead of the
// JSON result line.
func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func bench(cfg config) (*output, error) {
	prov := collectProvenance(cfg)
	t0 := time.Now()
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	say("phase  generate %d pool requests: %.3f s", len(w.Pool), time.Since(t0).Seconds())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	provJSON, _ := json.Marshal(prov) // plain strings and numbers
	say("provenance %s", provJSON)
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("provenance-%s-%d.json", cfg.workload, cfg.seed)), append(provJSON, '\n'), 0o644); err != nil {
		return nil, err
	}

	// Set up several times before the window, keeping the last server for
	// it, and again after it, so setup_s samples the machine at both ends
	// of the run. Cheap set-ups (no priming) repeat until they add up to
	// setupBudget, so their median is not one process start's noise.
	srv, setups, err := setUps(cfg.fwserved, w, minSetups-minSetups/2, maxSetups/2)
	if err != nil {
		return nil, err
	}
	win, err := measureWindow(srv, w, time.Duration(cfg.seconds)*time.Second)
	srv.stop()
	if err != nil {
		return nil, err
	}
	last, after, err := setUps(cfg.fwserved, w, minSetups/2, maxSetups/2)
	if err != nil {
		return nil, err
	}
	last.stop()
	setups = append(setups, after...)

	// Check every distinct response after the window.
	t0 = time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	wrongBodies := map[bodyKey]bool{}
	for _, r := range win.load.Responses {
		req, _ := w.request(r.Pool)
		if err := checkResponse(w.Kind, req, r.Body, rng); err != nil {
			wrongBodies[bodyKey{r.Pool, crc(r.Body)}] = true
			say("wrong result for pool request %d: %v", r.Pool, err)
		}
	}
	say("phase  check %d distinct responses: %.3f s", len(win.load.Responses), time.Since(t0).Seconds())
	e2e := endToEnd(win, setups, w, wrongBodies)
	guardErrs := shapeGuard(w, win)
	for _, g := range guardErrs {
		say("workload-shape guard: %v", g)
	}
	res := &output{
		Correct:   verdict(e2e, guardErrs),
		Attempted: e2e.attempted,
		Failed:    e2e.failed,
		Metrics:   map[string]metric{},
	}
	if win.load.Exhausted {
		say("note: the request pool ran out before the window ended; rates cover the shorter window")
	}
	for _, m := range e2e.metrics {
		say("metric %-22s %12.4f %-6s %s", m.name, m.Value, m.Unit, m.note)
		if !cfg.trace && m.inJSON {
			res.Metrics[m.name] = m.metric
		}
	}
	if cfg.trace {
		// The replay gets the bodies it replays and nothing else of the
		// pool. Once the pool's policies and the window's responses are
		// garbage, the replay's live heap is as small as fwserved's, so
		// garbage collection paces the two alike.
		layers, err := perLayer(cfg, w.prefix(e2e.reached), win.metricsPre, win.metricsPo)
		if err != nil {
			return nil, err
		}
		for _, m := range layers {
			say("layer  %-28s %14.4f %s", m.name, m.Value, m.Unit)
			res.Metrics[m.name] = m.metric
		}
	}
	return res, nil
}

// verdict is the result's correct field: every attempted request got a
// 200 whose body the oracle accepts, and the workload-shape guard held.
func verdict(e2e e2eResult, guardErrs []error) bool {
	return e2e.failed == 0 && len(guardErrs) == 0
}

// setUps sets up at least `least` times, then more while they total less
// than half of setupBudget, up to most. It stops every server but the
// last, and returns that one running with each set-up's seconds.
func setUps(bin string, w *Workload, least, most int) (*server, []float64, error) {
	var srv *server
	var took []float64
	spent := 0.0
	for k := 0; k < least || (spent < setupBudget.Seconds()/2 && k < most); k++ {
		if srv != nil {
			srv.stop()
		}
		// Finish the benchmark's own garbage collection first, so it does
		// not take CPU from the server's start.
		runtime.GC()
		var d time.Duration
		var err error
		if srv, d, err = setup(bin, w); err != nil {
			return nil, nil, err
		}
		took = append(took, d.Seconds())
		spent += d.Seconds()
	}
	return srv, took, nil
}

// setup starts a server and primes it; it returns the time from exec to
// the last priming reply.
func setup(bin string, w *Workload) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	for i, p := range w.Prime {
		if err := srv.post("/v1/diff", p.Body); err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("priming request %d: %w", i, err)
		}
	}
	return srv, time.Since(start), nil
}

// window is the timed run plus the server-side readings around it.
type window struct {
	load                  loadResult
	cpuTicks              int64
	peakRSS               int64
	metricsPre, metricsPo samples
	healthPre, healthPost admissionReading
}

type admissionReading struct{ shed, abandoned uint64 }

func readAdmission(s *server) (admissionReading, error) {
	h, err := s.health()
	if err != nil {
		return admissionReading{}, err
	}
	a := h.Admission
	return admissionReading{
		shed:      a.ShedOverload + a.ShedTimeout + a.ShedClient + a.ShedDraining,
		abandoned: a.QueueAbandoned,
	}, nil
}

// measureWindow reads the server's counters, runs the closed loop, and
// reads them again. The CPU reading comes first after the loop so the
// scrapes do not count toward it.
func measureWindow(s *server, w *Workload, dur time.Duration) (*window, error) {
	var win window
	var err error
	if win.healthPre, err = readAdmission(s); err != nil {
		return nil, err
	}
	if win.metricsPre, err = s.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	win.load = runClosedLoop(s.base, w, clients, dur)
	cpu1, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	win.cpuTicks = cpu1 - cpu0
	if win.metricsPo, err = s.scrape(); err != nil {
		return nil, err
	}
	if win.healthPost, err = readAdmission(s); err != nil {
		return nil, err
	}
	if win.peakRSS, err = s.peakRSSBytes(); err != nil {
		return nil, err
	}
	return &win, nil
}

type bodyKey struct {
	pool int
	sum  uint32
}

// namedMetric is a metric with its name, a note printed beside it, and
// whether it belongs in the JSON result.
type namedMetric struct {
	metric
	name   string
	note   string
	inJSON bool
}

type e2eResult struct {
	metrics           []namedMetric
	attempted, failed int
	wrong             int
	// reached is one past the highest Seq among the completed requests.
	reached int
	p50     float64
}

// endToEnd computes the user-visible metrics of the window.
func endToEnd(win *window, setups []float64, w *Workload, wrongBodies map[bodyKey]bool) e2eResult {
	r := e2eResult{attempted: len(win.load.Samples)}
	var lat []float64
	errs := 0
	for _, s := range win.load.Samples {
		if s.Status != http.StatusOK {
			errs++
			continue
		}
		pool := s.Seq
		if w.Cycle {
			pool = s.Seq % len(w.Pool)
		}
		if wrongBodies[bodyKey{pool, s.Sum}] {
			r.wrong++
			continue
		}
		lat = append(lat, float64(s.Latency.Nanoseconds())/1e6)
		r.reached = max(r.reached, s.Seq+1)
	}
	r.failed = errs + r.wrong
	done := len(lat)
	wall := win.load.Wall.Seconds()
	tailMs, p, beyond := tail(lat)
	r.p50 = median(lat)
	add := func(name, unit string, v float64, note string, inJSON bool) {
		r.metrics = append(r.metrics, namedMetric{metric{v, unit}, name, note, inJSON})
	}
	add("throughput_rps", "req/s", float64(done)/wall, fmt.Sprintf("(%d completed in %.3f s)", done, wall), true)
	add("latency_p50_ms", "ms", r.p50, "", true)
	// The tail is printed but not gated: its spread across ten seeds
	// reached 0.73 (see README).
	add("latency_tail_ms", "ms", tailMs, fmt.Sprintf("(p%.2f, %d samples beyond, n=%d)", p, beyond, done), false)
	perReq := 0.0
	if done > 0 {
		perReq = float64(win.cpuTicks) * 1000 / clockTicks / float64(done)
	}
	add("server_cpu_ms_per_req", "ms", perReq, fmt.Sprintf("(%d ticks)", win.cpuTicks), true)
	// Printed but not gated either: where no cache evicts, as on
	// diverse_cold, the peak grows with the requests the window
	// completes, and elsewhere it hinges on when a collection ran; its
	// spread across five seeds reached 0.22 (see README).
	add("peak_rss_mb", "MiB", float64(win.peakRSS)/(1<<20), "", false)
	add("setup_s", "s", median(setups), fmt.Sprintf("(median of %d, range %.4f-%.4f s)", len(setups), slices.Min(setups), slices.Max(setups)), true)
	// Always zero when the program is correct, so they gate through the
	// result's correct and failed fields rather than as bounded metrics.
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	add("error_rate", "ratio", rate, fmt.Sprintf("(%d of %d attempted)", r.failed, r.attempted), false)
	add("wrong_results", "count", float64(r.wrong), "", false)
	return r
}

// Counter series the guard and the per-layer metrics read.
const (
	reportHits   = `fwengine_cache_hits_total{cache="report"}`
	reportMisses = `fwengine_cache_misses_total{cache="report"}`
	compileHits  = `fwengine_cache_hits_total{cache="compile"}`
	compileMiss  = `fwengine_cache_misses_total{cache="compile"}`
	incAttempted = `fwengine_incremental_attempted_total`
	incUsed      = `fwengine_incremental_used_total`
	reappendSum  = `fwengine_incremental_rules_reappended_sum`
	reappendCnt  = `fwengine_incremental_rules_reappended_count`
	queueWaitSum = `fwguard_admission_queue_wait_seconds_sum`
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shapeGuard fails a run whose workload did not exercise what its
// BENCHMARK.json "why" says it does.
func shapeGuard(w *Workload, win *window) []error {
	d := func(series string) float64 { return delta(win.metricsPre, win.metricsPo, series) }
	var errs []error
	hits, misses := d(reportHits), d(reportMisses)
	switch w.Name {
	case "resubmit_warm":
		if hits == 0 || misses != 0 {
			errs = append(errs, fmt.Errorf("report hit ratio %.4f (%v hits, %v misses), want 1 after priming", ratio(hits, hits+misses), hits, misses))
		}
	case "diverse_cold":
		if hits != 0 || misses == 0 {
			errs = append(errs, fmt.Errorf("report hit ratio %.4f (%v hits, %v misses), want 0", ratio(hits, hits+misses), hits, misses))
		}
		if ch := d(compileHits); ch != 0 {
			errs = append(errs, fmt.Errorf("%v compile-cache hits, want none", ch))
		}
	case "edit_impact":
		if used := d(incUsed); used == 0 {
			errs = append(errs, fmt.Errorf("incremental used ratio is 0 (%v attempted)", d(incAttempted)))
		}
	}
	if shed := win.healthPost.shed - win.healthPre.shed; shed != 0 {
		errs = append(errs, fmt.Errorf("admission shed %d requests", shed))
	}
	if ab := win.healthPost.abandoned - win.healthPre.abandoned; ab != 0 {
		errs = append(errs, fmt.Errorf("%d requests abandoned the admission queue", ab))
	}
	if q := d(queueWaitSum); q != 0 {
		errs = append(errs, fmt.Errorf("requests queued for admission (%.6f s in total)", q))
	}
	return errs
}

// perLayer runs the traced replay and computes the per-layer metrics:
// per-call medians from the spans, counter ratios from the scrapes around
// the window, and http.self_ms, the end-to-end median of a one-client HTTP
// pass over the replayed requests left over once the layers' self times
// are taken out.
//
// w holds the requests the window completed, so the HTTP run and the
// replay cover the same inputs; pre and post are the scrapes around the
// window.
func perLayer(cfg config, w *Workload, pre, post samples) ([]namedMetric, error) {
	budget := time.Duration(cfg.seconds) * time.Second / 2
	rr, err := replay(w, budget)
	if err != nil {
		return nil, err
	}
	if rr.Requests == 0 {
		return nil, errors.New("traced replay ran no request")
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)), rr.Spans); err != nil {
		return nil, err
	}
	stats := summarize(rr.Spans, rr.Requests)
	// The end-to-end reference comes from the replayed requests served over
	// HTTP one at a time, as the replay runs them, so a second request's
	// contention is not counted as HTTP cost. It is measured apart from the
	// spans, so http.self_ms can come out negative.
	ref, err := referencePass(cfg.fwserved, w, rr.Requests, 2*budget)
	if err != nil {
		return nil, err
	}
	e2eMedian := median(ref)
	selfSum := 0.0
	say("trace  %d requests replayed; one-client HTTP median over %d of them %.4f ms", rr.Requests, len(ref), e2eMedian)
	for _, name := range layerOrder(stats) {
		ls := stats[name]
		say("trace  %-20s calls %5d  call median %10.4f ms %10.0f allocs  self/request median %10.4f ms", name, ls.Calls, ls.CallMs, ls.CallAllocs, ls.SelfMs)
		selfSum += ls.SelfMs
	}
	httpSelf := e2eMedian - selfSum
	check := "ok"
	if httpSelf < 0 {
		check = "FAILED, the layers' self times exceed the end-to-end median"
	}
	say("trace  layers self sum %.4f ms + http.self %.4f ms = end-to-end median %.4f ms; http.self_ms >= 0: %s", selfSum, httpSelf, e2eMedian, check)

	d := func(series string) float64 { return delta(pre, post, series) }
	sumOver := func(prefix string) float64 {
		t := 0.0
		for _, c := range []string{"compile", "report", "derived"} {
			t += d(prefix + `{cache="` + c + `"}`)
		}
		return t
	}
	call := func(name string) (float64, float64) {
		if ls, ok := stats[name]; ok {
			return ls.CallMs, ls.CallAllocs
		}
		return 0, 0
	}
	var out []namedMetric
	add := func(name, unit string, v float64) {
		out = append(out, namedMetric{metric: metric{v, unit}, name: name})
	}
	for _, l := range []struct {
		layer  string
		allocs bool
	}{
		{"api.decode", true}, {"frontend.lower", true}, {"engine.hash", true},
		{"engine.compile", true}, {"compare.diff", true}, {"engine.impact", true},
		{"anomaly.detect", false}, {"anomaly.shadowed", false}, {"redundancy.remove", true},
		{"api.encode", true},
	} {
		ms, allocs := call(l.layer)
		add(l.layer+"_ms", "ms", ms)
		if l.allocs {
			add(l.layer+"_allocs", "count", allocs)
		}
	}
	hits, misses := d(reportHits), d(reportMisses)
	add("engine.report_hit_ratio", "ratio", ratio(hits, hits+misses))
	chits, cmiss := d(compileHits), d(compileMiss)
	add("engine.compile_hit_ratio", "ratio", ratio(chits, chits+cmiss))
	add("engine.coalesced", "count", sumOver("fwengine_singleflight_coalesced_total"))
	add("engine.incremental_used_ratio", "ratio", ratio(d(incUsed), d(incAttempted)))
	add("engine.cache_evictions", "count", sumOver("fwengine_cache_evictions_total"))
	add("fdd.nodes", "count", median(rr.FDDNodes))
	add("fdd.rules_reappended", "count", ratio(d(reappendSum), d(reappendCnt)))
	add("compare.discrepancies", "count", median(rr.Rows))
	add("api.encode_bytes", "bytes", median(rr.Bytes))
	add("http.self_ms", "ms", httpSelf)
	add("trace.overhead_pct", "%", 100*(rr.Traced.Seconds()/rr.Untraced.Seconds()-1))
	return out, nil
}

// referencePass serves the pool's first n requests, in order, to a single
// client on a freshly set-up server, for at most limit, and returns their
// latencies in ms.
func referencePass(bin string, w *Workload, n int, limit time.Duration) ([]float64, error) {
	sub := *w
	sub.Pool = w.Pool[:n]
	runtime.GC()
	srv, _, err := setup(bin, w)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	var lat []float64
	for _, s := range runClosedLoop(srv.base, &sub, 1, limit).Samples {
		if s.Status != http.StatusOK {
			return nil, fmt.Errorf("reference pass: request %d got status %d", s.Seq, s.Status)
		}
		lat = append(lat, float64(s.Latency.Nanoseconds())/1e6)
	}
	return lat, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// goMaxProcs is read once so provenance and the load shape agree.
var goMaxProcs = runtime.GOMAXPROCS(0)
