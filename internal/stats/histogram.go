package stats

import (
	"fmt"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket histogram over a half-open interval
// [Low, High) with a configurable number of equal-width buckets plus
// implicit underflow and overflow buckets.
//
// It backs the /coalescing/time/parcel-arrival-histogram performance
// counter from the paper, which records the gap between parcel arrivals
// for a particular action, with HPX's bucket layout (HPX encodes the
// counter as a flat int64 array [low, high, bucket-width, b0, b1, ...]).
// The command-line tools print it with String.
//
// Histogram is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	low     float64
	high    float64
	width   float64
	buckets []uint64
	under   uint64
	over    uint64
	count   uint64
}

// NewHistogram creates a histogram covering [low, high) with n buckets.
// It panics if high <= low or n <= 0; both indicate programmer error in
// counter configuration.
func NewHistogram(low, high float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram bucket count must be positive")
	}
	if high <= low {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{
		low:     low,
		high:    high,
		width:   (high - low) / float64(n),
		buckets: make([]uint64, n),
	}
}

// ObserveBatch records a batch of samples under a single lock
// acquisition. Hot paths that would otherwise contend on the histogram
// mutex (the coalescer's striped Put) buffer samples locally and fold
// them in here.
func (h *Histogram) ObserveBatch(xs []float64) {
	if len(xs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, x := range xs {
		h.count++
		switch {
		case x < h.low:
			h.under++
		case x >= h.high:
			h.over++
		default:
			i := int((x - h.low) / h.width)
			if i >= len(h.buckets) { // guard against floating point edge
				i = len(h.buckets) - 1
			}
			h.buckets[i]++
		}
	}
}

// Count returns the total number of observations, including under/overflow.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Reset clears all buckets and totals, keeping the configured range.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.under, h.over, h.count = 0, 0, 0
}

// String renders a compact ASCII view of the histogram, useful in the
// counter-dumping command line tools.
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sb strings.Builder
	maxCount := h.under
	for _, b := range h.buckets {
		if b > maxCount {
			maxCount = b
		}
	}
	if h.over > maxCount {
		maxCount = h.over
	}
	bar := func(c uint64) string {
		if maxCount == 0 {
			return ""
		}
		n := int(40 * float64(c) / float64(maxCount))
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(&sb, "histogram [%g, %g) x%d, n=%d\n", h.low, h.high, len(h.buckets), h.count)
	if h.under > 0 {
		fmt.Fprintf(&sb, "  <%12g %8d %s\n", h.low, h.under, bar(h.under))
	}
	for i, b := range h.buckets {
		lo := h.low + float64(i)*h.width
		fmt.Fprintf(&sb, "  %13g %8d %s\n", lo, b, bar(b))
	}
	if h.over > 0 {
		fmt.Fprintf(&sb, "  >=%11g %8d %s\n", h.high, h.over, bar(h.over))
	}
	return sb.String()
}
