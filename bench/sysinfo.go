package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runContext is the block every output carries so a number can be traced to
// the machine and commit that produced it.
type runContext struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"m"`
	// AVX2FMA reports whether the tensor package's AVX2+FMA kernels are
	// dispatched: the package keeps its switch private and sets it from the
	// same CPUID bits the kernel lists in /proc/cpuinfo, on amd64 only.
	AVX2FMA bool   `json:"avx2_fma"`
	Seed    uint64 `json:"seed"`
	Start   string `json:"start_time"`
}

func newContext(seed uint64, workers int) runContext {
	model, flags := cpuInfo()
	return runContext{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   model,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		AVX2FMA:    runtime.GOARCH == "amd64" && flags["avx2"] && flags["fma"],
		Seed:       seed,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the revision the go tool stamped into the binary (it does so when
// the build runs inside a git checkout); the driver's checkouts are not git
// repositories, and there it reads "unknown".
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuInfo() (model string, flags map[string]bool) {
	model, flags = "unknown", map[string]bool{}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, flags
	}
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if len(flags) == 0 {
				for _, f := range strings.Fields(val) {
					flags[f] = true
				}
			}
		}
	}
	return model, flags
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM); 0 where
// /proc/self/status is not available.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
