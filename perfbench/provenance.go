package main

import (
	"os/exec"
	"runtime"
	"strings"

	"diversefw/internal/calibrate"
)

// provenance identifies what a run measured and on what machine.
type provenance struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Commit is HEAD when the working directory is a git checkout, else
	// "unknown".
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Clients    int    `json:"clients"`
	// CalibrateNsPerOp is calibrate.NsPerOp: a fixed CPU-only workload
	// that no code change can move, so a shift in it between runs is the
	// machine, not the program.
	CalibrateNsPerOp int64 `json:"calibrate_ns_per_op"`
}

func collectProvenance(cfg config) provenance {
	return provenance{
		Workload:         cfg.workload,
		Seed:             cfg.seed,
		Seconds:          cfg.seconds,
		Trace:            cfg.trace,
		Commit:           gitCommit(),
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       goMaxProcs,
		NumCPU:           runtime.NumCPU(),
		Clients:          clients,
		CalibrateNsPerOp: calibrate.NsPerOp(),
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
