package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// machineContext describes the machine a row was measured on, so that a
// wall-clock number can be read against its core count and load.
func machineContext() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q load1=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), loadAverage())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if fields := strings.Fields(string(b)); len(fields) > 0 {
		return fields[0]
	}
	return "unknown"
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// costMeter measures the host cost of one stretch of work: wall time,
// process CPU time and heap allocations.
type costMeter struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
}

func startMeter() costMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costMeter{t0: time.Now(), cpu0: cpuSeconds(), mallocs: ms.Mallocs}
}

// stop returns wall seconds, CPU seconds and 10⁶ heap allocations since
// startMeter.
func (m costMeter) stop() (wall, cpu, allocsM float64) {
	wall = time.Since(m.t0).Seconds()
	cpu = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, cpu, float64(ms.Mallocs-m.mallocs) / 1e6
}

// addHostMetrics fills the whole-process host-cost metrics.
func addHostMetrics(o *outcome) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.Values["peak_rss_mb"] = peakRSSMB()
	o.Values["runtime.gc_cycles"] = float64(ms.NumGC)
	o.Values["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}
