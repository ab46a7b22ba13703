package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diversefw/internal/api"
)

// server is one fwserved process started with its default flags on a
// loopback port the kernel picks.
type server struct {
	cmd  *exec.Cmd
	base string
	// logDone closes once the stderr drain has hit EOF (the process
	// exited and closed its end).
	logDone chan struct{}
	ctl     *http.Client
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// startServer execs fwserved, reads the bound address from its
// "listening" log line, and polls /healthz until it answers 200.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// If the benchmark dies without stopping the server, the kernel kills
	// the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fwserved: %w", err)
	}
	s := &server{
		cmd:     cmd,
		logDone: make(chan struct{}),
		ctl:     &http.Client{Timeout: 30 * time.Second},
	}
	addr := make(chan string, 1)
	go func() {
		// The access log is one line per request; draining it keeps the
		// server from blocking on a full pipe.
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if found {
				continue
			}
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				found = true
				addr <- line.Addr
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // after a scanner error, keep draining
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logDone:
		s.stop()
		return nil, errors.New("fwserved exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("fwserved did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := s.ctl.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("fwserved /healthz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for a clean exit, and kills the process if
// it has not exited within ten seconds. It returns once the process and
// its stderr drain have both ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.logDone
		_ = s.cmd.Wait() // the exit status of a stopped server says nothing
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	s.ctl.CloseIdleConnections()
}

// post sends one request on the control client and fails unless it
// gets a 200.
func (s *server) post(path string, body []byte) error {
	resp, err := s.ctl.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, out)
	}
	return nil
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return out, nil
}

// health reads /healthz.
func (s *server) health() (api.HealthResponse, error) {
	var h api.HealthResponse
	b, err := s.get("/healthz")
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return h, fmt.Errorf("decode /healthz: %w", err)
	}
	if h.Admission == nil {
		return h, errors.New("/healthz has no admission stats")
	}
	return h, nil
}

// scrape reads /metrics into a map from series (name plus label set, as
// printed) to value.
func (s *server) scrape() (samples, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(b)
}

// samples maps a Prometheus text-format series to its value.
type samples map[string]float64

func parseExposition(b []byte) (samples, error) {
	out := samples{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta returns after[series] - before[series]; absent series read 0.
func delta(before, after samples, series string) float64 {
	return after[series] - before[series]
}

// cpuTicks returns the process's utime+stime in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// space-separated, starting with the state (field 3).
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in /proc stat: %q", rest)
	}
	return utime + stime, nil
}

// peakRSSBytes returns the process's VmHWM.
func (s *server) peakRSSBytes() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
