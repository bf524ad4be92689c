package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"nvrel/internal/obs"
)

// pct is the nearest-rank percentile (q in [0, 1]) of samples, the
// definition the serve tooling already uses.
func pct(samples []float64, q float64) float64 { return obs.Percentile(samples, q) }

// median is the middle value, or the mean of the two middle values.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// vmHWM reads the peak resident set size, in MiB, of a process from
// /proc (pid 0 = this process).
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// setupChildren is how many fresh child processes a sweep run starts to
// time set-up, besides its own first pass.
const setupChildren = 4

// setupSamples returns first followed by the set-up times of
// setupChildren fresh child processes.
func setupSamples(o options, first float64) ([]float64, error) {
	s := []float64{first}
	for i := 0; i < setupChildren; i++ {
		c, err := childSetupPass(o)
		if err != nil {
			return nil, err
		}
		s = append(s, c)
	}
	return s, nil
}

// childSetupPass runs this program again with -setup-pass, so the pass
// starts from a cold process (no explored graphs, workspaces or warm
// heap), and returns the seconds the child measured.
func childSetupPass(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-pass", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up pass: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up pass output %q: %w", out, err)
	}
	return s, nil
}

// counterDelta is after - before over every counter in after.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// sumPrefixSuffix adds the counters whose names start with prefix and end
// with suffix.
func sumPrefixSuffix(c map[string]int64, prefix, suffix string) int64 {
	var s int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}
