package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PrintEnv writes what the figures depend on: GOMAXPROCS, the CPU model,
// the Go version and whether the state directory sits on a
// memory-backed filesystem (where fsync costs nothing).
func PrintEnv(w io.Writer, stateDir string) {
	fmt.Fprintf(w, "env gomaxprocs=%d cpus=%d go=%s os=%s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "env cpu=%q\n", cpuModel())
	fmt.Fprintf(w, "env state_dir=%s memfs=%v\n", stateDir, memFS(stateDir))
}

// stealLimit is the share of CPU time the hypervisor may steal over a
// run before its figures are marked not comparable with other runs: on a
// shared machine every figure slows with the steal.
const stealLimit = 0.05

// cpuTimes reads the machine-wide CPU time counters from /proc/stat: the
// ticks stolen by the hypervisor and the total over every field.
func cpuTimes() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealMeter measures the CPU steal over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{steal: s, total: t, ok: ok}
}

// Print writes the steal share since the meter started and whether the
// run is comparable with others.
func (m stealMeter) Print(w io.Writer) {
	s, t, ok := cpuTimes()
	if !m.ok || !ok || t <= m.total {
		fmt.Fprintln(w, "env steal=unknown comparable=unknown")
		return
	}
	share := float64(s-m.steal) / float64(t-m.total)
	fmt.Fprintf(w, "env steal=%.2f%% over the run comparable=%v (runs with more than %.0f%% steal are not comparable)\n",
		100*share, share <= stealLimit, 100*stealLimit)
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
