package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/metrics"
)

// settleGoroutines waits for the goroutine count to return to (near)
// base, GCing between polls. Dumps stacks on failure so the leak is
// identifiable.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: base %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// flakyFault fires inner on roughly one call in n (deterministic
// counter, safe for concurrent Fire). fired counts the calls that ran
// inner, so a storm can prove its fault actually landed.
type flakyFault struct {
	mu    sync.Mutex
	calls int
	fired int
	n     int
	inner chaos.Fault
}

func (f *flakyFault) fire(ctx context.Context) error {
	f.mu.Lock()
	f.calls++
	hit := f.calls%f.n == 0
	if hit {
		f.fired++
	}
	f.mu.Unlock()
	if !hit {
		return nil
	}
	return f.inner(ctx)
}

func (f *flakyFault) firedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// TestChaosStress drives hundreds of concurrent requests through a real
// TCP server while faults fire randomly underneath: injected latency in
// compile, forced budget exhaustion mid-diff, cache-insert failures,
// and client-side cancellation — all under admission pressure. It then
// asserts the system degraded instead of corrupting:
//
//   - every completed non-2xx response is a well-formed v1 error
//     envelope with a known code,
//   - a clean request after the storm returns the correct analysis
//     (no cache poisoning),
//   - the goroutine count settles back to baseline (no leaks), and
//   - the server drains cleanly.
//
// scripts/check.sh runs this with -race -count=1.
func TestChaosStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	base := runtime.NumGoroutine()

	eng := engine.New(engine.Config{
		Limits: guard.Limits{MaxFDDNodes: 200_000, MaxEdgeSplits: 200_000},
	})
	srv := NewServer(
		WithEngine(eng),
		WithMetrics(metrics.NewRegistry()),
		WithAdmission(admission.Config{
			MaxInFlight:   4,
			MaxQueue:      8,
			QueueDeadline: 200 * time.Millisecond,
			MaxPerClient:  0, // stress comes from one host; don't cap by client
		}),
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fault cocktail: each fires on a fraction of pipeline passes. The
	// budget fault sits at engine.diff, inside the budgeted flight just
	// before the walk, so it trips the walk at its next budget poll.
	exhaust := &flakyFault{n: 3, inner: chaos.ExhaustBudget(guard.KindNodes)}
	removes := []func(){
		chaos.Register(chaos.PointCompile, (&flakyFault{n: 7, inner: chaos.Latency(2 * time.Millisecond)}).fire),
		chaos.Register(chaos.PointDiff, exhaust.fire),
		chaos.Register(chaos.PointCacheInsertCompile, (&flakyFault{n: 5, inner: chaos.FailWith(fmt.Errorf("injected: compile cache down"))}).fire),
		chaos.Register(chaos.PointCacheInsertReport, (&flakyFault{n: 3, inner: chaos.FailWith(fmt.Errorf("injected: report cache down"))}).fire),
	}
	defer func() {
		for _, rm := range removes {
			rm()
		}
	}()

	// A spread of policy pairs so compiles, cache hits, and misses mix;
	// the bodies alternate so singleflight coalescing also gets traffic.
	bodies := []string{
		`{"schema":"five","a":` + jsonString(fiveA) + `,"b":` + jsonString(fiveB) + `}`,
		`{"schema":"five","a":` + jsonString(fiveB) + `,"b":` + jsonString(fiveA) + `}`,
		`{"schema":"paper","a":` + jsonString(teamA) + `,"b":` + jsonString(teamB) + `}`,
		`{"schema":"five","a":"any -> accept\n","b":"any -> discard\n"}`,
		`{"schema":"five","a":"garbage","b":"any -> accept\n"}`, // 400 path
	}
	knownCodes := map[string]bool{
		CodeBadRequest: true, CodeUnparseablePolicy: true,
		CodeIncompletePolicy: true, CodeUnprocessable: true,
		CodeInternal: true, CodePolicyTooComplex: true,
		CodeServerOverloaded: true, CodeClientOverLimit: true,
		CodeTimeout: true, CodeClientClosed: true,
	}

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	problems := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				body := bodies[rng.Intn(len(bodies))]
				ctx := context.Background()
				cancelled := false
				if rng.Intn(6) == 0 { // ~17% of requests hang up early
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(5))*time.Millisecond)
					defer cancel()
					cancelled = true
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/diff", strings.NewReader(body))
				if err != nil {
					problems <- err.Error()
					continue
				}
				resp, err := client.Do(req)
				if err != nil {
					if !cancelled && !strings.Contains(err.Error(), "context deadline exceeded") {
						problems <- "transport error: " + err.Error()
					}
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode < 300 {
					var dr DiffResponse
					if err := json.Unmarshal(raw, &dr); err != nil {
						problems <- fmt.Sprintf("2xx with bad body: %v: %s", err, raw)
					}
					continue
				}
				var e Error
				if err := json.Unmarshal(raw, &e); err != nil || e.Err.Code == "" {
					problems <- fmt.Sprintf("status %d without envelope: %s", resp.StatusCode, raw)
					continue
				}
				if !knownCodes[e.Err.Code] {
					problems <- fmt.Sprintf("status %d with unknown code %q", resp.StatusCode, e.Err.Code)
				}
				if e.Err.RequestID == "" {
					problems <- fmt.Sprintf("status %d envelope missing requestId", resp.StatusCode)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(problems)
	bad := 0
	for p := range problems {
		bad++
		if bad <= 10 {
			t.Error(p)
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more problems", bad-10)
	}
	if exhaust.firedCount() == 0 {
		t.Error("the mid-diff budget fault never fired during the storm")
	}

	// Lift the faults; the very next request must be correct — a
	// poisoned cache (partial FDD, wrong report) would surface here.
	for _, rm := range removes {
		rm()
	}
	removes = nil
	for _, check := range []struct {
		body string
		want bool // equivalent?
	}{
		{`{"schema":"paper","a":` + jsonString(teamA) + `,"b":` + jsonString(teamB) + `}`, false},
		{`{"schema":"paper","a":` + jsonString(teamA) + `,"b":` + jsonString(teamA) + `}`, true},
		{`{"schema":"five","a":` + jsonString(fiveA) + `,"b":` + jsonString(fiveB) + `}`, false},
	} {
		resp, err := http.Post(ts.URL+"/v1/diff", "application/json", bytes.NewReader([]byte(check.body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-storm request: status %d: %s", resp.StatusCode, raw)
		}
		var dr DiffResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Equivalent != check.want {
			t.Fatalf("post-storm result corrupted: equivalent=%v want %v for %s",
				dr.Equivalent, check.want, check.body)
		}
	}
	// The teamA/teamB diff must still find its three discrepancies.
	var dr DiffResponse
	if code := do(t, srv, "/v1/diff",
		DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &dr); code != 200 {
		t.Fatalf("post-storm diff status %d", code)
	}
	if len(dr.Discrepancies) != 3 {
		t.Fatalf("post-storm diff has %d discrepancies, want 3 — cache poisoned", len(dr.Discrepancies))
	}

	// Clean drain: new analysis traffic sheds, health keeps answering,
	// and the listener closes without hanging.
	srv.BeginDrain()
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json",
		strings.NewReader(`{"schema":"five","a":"any -> accept\n","b":"any -> accept\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	ts.Close()

	settleGoroutines(t, base)
}
