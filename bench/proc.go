package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// nap sleeps on the OS timer. time.Sleep parks on the runtime's poller,
// whose granularity is a millisecond when every P is idle: too coarse to
// pace 1 ms ticks or to time a sub-millisecond wait. The generator
// sleeps between ticks rather than spin, so that it takes neither a
// core from the fleet nor CPU into cpu_us_per_pkt.
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	if err := syscall.Nanosleep(&ts, nil); err != nil {
		time.Sleep(d)
	}
}

// procMeter brackets a measured window with process-level readings.
type procMeter struct {
	wall    time.Time
	cpu     time.Duration
	gcPause time.Duration
}

func startProcMeter() procMeter {
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return procMeter{wall: time.Now(), cpu: cpuTime(), gcPause: gs.PauseTotal}
}

// putProc closes the window: it writes the proc.* diagnostics and
// returns the window's CPU and wall time.
func (m procMeter) putProc(res *result) (cpu, wall time.Duration) {
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	cpu, wall = cpuTime()-m.cpu, time.Since(m.wall)
	res.put("proc.cpu_cores_busy", cpu.Seconds()/wall.Seconds())
	res.put("proc.peak_rss_mb", peakRSSMB())
	res.put("proc.gc_pause_ms", float64(gs.PauseTotal-m.gcPause)/1e6)
	return cpu, wall
}

// envStamp describes where and on what the numbers were taken.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func readEnvStamp() envStamp {
	st := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
		Kernel:     "unknown",
		Network:    "loopback: fleet traffic crosses the host loopback interface, never a link",
	}
	// `go build` stamps the revision into the binary; `go run` does not,
	// so ask git, which answers only inside a checkout that has one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && strings.HasPrefix(st.Commit, "unknown") {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}
