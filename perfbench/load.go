package main

import (
	"bytes"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request of the closed loop.
type sample struct {
	// Seq is the request's position in the run; it selects the body.
	Seq     int
	Latency time.Duration
	Status  int // 0 on a transport error
	// Sum is the CRC-32 of the response body; with the pool index it
	// names the distinct response the oracle checked.
	Sum uint32
}

// response is one distinct response body for a pool entry. Identical
// bodies (a cache-hit workload re-posting the same pairs) are kept once.
type response struct {
	Pool int
	Body []byte
}

// loadResult is what the timed window produced.
type loadResult struct {
	Samples   []sample
	Responses []response
	Wall      time.Duration
	// Exhausted reports that a non-cycling pool ran out before the
	// window ended.
	Exhausted bool
}

// runClosedLoop drives the workload with `clients` closed-loop clients,
// each on its own keep-alive connection and with no think time, until
// dur has passed: a client sends its next request only once the previous
// reply has been read in full. Bodies are taken in pool order from a
// shared counter. Responses are kept for the oracle, which runs after
// the window so checking takes no CPU from the server while it is timed.
func runClosedLoop(base string, w *Workload, clients int, dur time.Duration) loadResult {
	var next atomic.Int64
	var wg sync.WaitGroup
	type clientOut struct {
		samples   []sample
		responses []response
		exhausted bool
	}
	outs := make([]clientOut, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			tr := &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
			url := base + w.Path
			var buf bytes.Buffer
			// seen maps a pool index to the checksums of the bodies this
			// client already kept for it.
			seen := map[int][]uint32{}
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				req, ok := w.request(seq)
				if !ok {
					out.exhausted = true
					return
				}
				pool := seq
				if w.Cycle {
					pool = seq % len(w.Pool)
				}
				t0 := time.Now()
				status, err := post(hc, url, req.Body, &buf)
				lat := time.Since(t0)
				if err != nil {
					status = 0
				}
				if status != http.StatusOK {
					out.samples = append(out.samples, sample{Seq: seq, Latency: lat, Status: status})
					continue
				}
				sum := crc(buf.Bytes())
				out.samples = append(out.samples, sample{Seq: seq, Latency: lat, Status: status, Sum: sum})
				if !containsSum(seen[pool], sum) {
					seen[pool] = append(seen[pool], sum)
					out.responses = append(out.responses, response{Pool: pool, Body: bytes.Clone(buf.Bytes())})
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	res := loadResult{Wall: time.Since(start)}
	for _, o := range outs {
		res.Samples = append(res.Samples, o.samples...)
		res.Responses = append(res.Responses, o.responses...)
		res.Exhausted = res.Exhausted || o.exhausted
	}
	return res
}

func crc(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func containsSum(sums []uint32, s uint32) bool {
	for _, x := range sums {
		if x == s {
			return true
		}
	}
	return false
}

// post sends one JSON body and reads the whole reply into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
