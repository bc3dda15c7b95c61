package main

import (
	"bufio"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// nSlices is how many equal sub-windows the measured window is cut into;
// a rate or percentile is computed per slice and the median reported, so
// one disturbed slice (a GC cycle, a neighbour on the host) cannot move
// the figure.
const nSlices = 5

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// relSpread is (max − min) / median of xs: the slice spread reported
// beside every end-to-end value. 0 when it is undefined.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (stats.Max(xs) - stats.Min(xs)) / math.Abs(m)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), the
// rule the driver applies to the spread of repeated runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqrShare is the interquartile distance of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
// It falls back to getrusage's ru_maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procSample is one reading of the process-wide totals the process.*
// metrics are deltas of.
type procSample struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func procNow() procSample {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return procSample{
		cpu:        cpuNow(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// sliceMark is the state of the run at one slice boundary; per-slice
// rates are differences of neighbouring marks.
type sliceMark struct {
	at      time.Time
	cpu     time.Duration
	ops     int64 // the workload's own unit of completed work
	parcels int64 // parcels received by all ports
	tasks   int64 // scheduler tasks executed (taskgraph: task bodies)
}

// latSample is one timed operation: when it completed and how long it
// took, so samples can be assigned to slices afterwards.
type latSample struct {
	doneNs int64 // ns since the window's start
	lat    time.Duration
}

// window is what one measured pass of a workload produced.
type window struct {
	marks []sliceMark // nSlices+1 boundaries (taskgraph: one per cycle)
	lats  []latSample
}

func (w *window) wall() time.Duration {
	return w.marks[len(w.marks)-1].at.Sub(w.marks[0].at)
}
func (w *window) ops() int64 { return w.marks[len(w.marks)-1].ops - w.marks[0].ops }

// perSlice maps each pair of neighbouring marks through f.
func (w *window) perSlice(f func(a, b sliceMark) float64) []float64 {
	out := make([]float64, 0, len(w.marks)-1)
	for i := 1; i < len(w.marks); i++ {
		out = append(out, f(w.marks[i-1], w.marks[i]))
	}
	return out
}

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// latPerSlice cuts the latency samples (µs) into nSlices groups of equal
// duration and returns summarise of each non-empty group.
func (w *window) latPerSlice(summarise func([]float64) float64) []float64 {
	total := w.wall().Nanoseconds()
	if total <= 0 || len(w.lats) == 0 {
		return nil
	}
	groups := make([][]float64, nSlices)
	for _, s := range w.lats {
		g := int(s.doneNs * nSlices / total)
		if g < 0 {
			g = 0
		}
		if g >= nSlices {
			g = nSlices - 1
		}
		groups[g] = append(groups[g], float64(s.lat)/float64(time.Microsecond))
	}
	var out []float64
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, summarise(g))
		}
	}
	return out
}
