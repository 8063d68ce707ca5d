package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine a result was measured on, so timings
// from different hosts are never compared unknowingly.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; "unknown"
// where the file or the line does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //lint:allow errdiscipline -- read-only file; nothing to flush
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall      time.Time
	cpu       time.Duration // user + system, all threads
	allocB    uint64
	allocObjs uint64
	gcCycles  uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(usageSamples)
	u.allocB = usageSamples[0].Value.Uint64()
	u.allocObjs = usageSamples[1].Value.Uint64()
	u.gcCycles = usageSamples[2].Value.Uint64()
	return u
}

// delta is the resource use between two readings.
type delta struct {
	wall, cpu                   time.Duration
	allocB, allocObjs, gcCycles uint64
}

func since(a usage) delta {
	b := readUsage()
	return delta{
		wall:      b.wall.Sub(a.wall),
		cpu:       b.cpu - a.cpu,
		allocB:    b.allocB - a.allocB,
		allocObjs: b.allocObjs - a.allocObjs,
		gcCycles:  b.gcCycles - a.gcCycles,
	}
}

// maxRSS is the process's peak resident set size in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
