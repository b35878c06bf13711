package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a round is charged from.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// readUsage stops the world briefly (ReadMemStats), so it is called only at
// round boundaries, never inside a timed op.
func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{at: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// liveHeapMB forces two collections (the second frees what the first's
// finalizers released) and returns the heap still in use, in MiB. The
// caller keeps the workload's state referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// envBlock records where the numbers were taken.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Note       string `json:"note"`
}

func readEnv(seed int64) envBlock {
	e := envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Note:       "engine workloads run one client with Workers=1; walls taken with Workers>1 on this box are not scaling results",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}
