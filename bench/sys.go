package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// memDelta is the allocation activity between two readMem calls.
type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{allocBytes: m.TotalAlloc, mallocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}

func (a memDelta) add(b memDelta) memDelta {
	return memDelta{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.pauseNs + b.pauseNs}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.pauseNs - b.pauseNs}
}

// peakRSSMB is the process's peak resident set so far. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// runRecord says where and on what a result was measured.
type runRecord struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick,omitempty"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func newRunRecord(seed uint64, seconds int, quick bool) runRecord {
	rec := runRecord{
		Commit: "unknown", Seed: seed, Seconds: seconds, Quick: quick,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(),
	}
	// The build stamps the revision only inside a git checkout; the
	// benchmark driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rec.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		rec.Commit += dirty
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
