package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure backed by fewer is noise, so the reported percentile drops
// to the highest one the sample supports.
const minBeyond = 10

// Quantile is a percentile as reported: the value, the percentile it
// actually is after the sample-count rule, and the sample count.
type Quantile struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// quantile returns the nearest-rank p-th percentile of xs. A tail (p > 50)
// is lowered to the highest percentile that still has at least minBeyond
// samples above it, but never below the median; Percentile and Samples
// say what was reported. xs is sorted in place.
func quantile(xs []float64, p float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p / 100 * float64(n))) // 1-based rank
	if p > 50 {
		k = min(k, n-minBeyond)
		k = max(k, (n+1)/2)
	}
	k = max(k, 1)
	return Quantile{Value: xs[k-1], Percentile: 100 * float64(k) / float64(n), Samples: n}
}

// median is the middle value (mean of the middle two for even counts);
// used for repeated set-up times and per-run medians, not for tails.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb := procStatusKB("VmHWM:")
	return kb / 1024
}

// cpuStat reads the machine-wide steal and total CPU time from /proc/stat,
// in clock ticks; steal is time the hypervisor ran someone else while this
// machine's CPUs had work, the usual cause of drift on shared hosts.
func cpuStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS restarts the process's resident high-water mark at its
// current resident size.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reset peak RSS: %v\n", err)
	}
}

func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			fields := strings.Fields(line[len(key):])
			if len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64)
				return v
			}
		}
	}
	return 0
}
