package stats

import "math"

// Test probes. The shipped code reads a histogram through String and an
// accumulator through Mean; these read the rest of their state.

// Observe records one sample through the batched path the coalescer
// uses.
func (h *Histogram) Observe(x float64) { h.ObserveBatch([]float64{x}) }

// Buckets returns a copy of the in-range bucket counts.
func (h *Histogram) Buckets() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// UnderOver returns the underflow and overflow counts.
func (h *Histogram) UnderOver() (under, over uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.under, h.over
}

// Sum returns the running total of all samples.
func (o *Online) Sum() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.total
}

// StdDev returns the running unbiased sample standard deviation.
func (o *Online) StdDev() float64 {
	return math.Sqrt(o.Variance())
}

// Min returns the smallest sample seen, or 0 when empty.
func (o *Online) Min() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == 0 {
		return 0
	}
	return o.min
}

// Max returns the largest sample seen, or 0 when empty.
func (o *Online) Max() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == 0 {
		return 0
	}
	return o.max
}

// Values returns the histogram in HPX's flat int64 encoding:
// [low, high, bucket-width, bucket0, bucket1, ...]. Boundary values are
// truncated toward zero exactly as HPX does.
func (h *Histogram) Values() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int64, 0, 3+len(h.buckets))
	out = append(out, int64(h.low), int64(h.high), int64(h.width))
	for _, b := range h.buckets {
		out = append(out, int64(b))
	}
	return out
}

// Count returns the number of samples accumulated so far.
func (o *Online) Count() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

// Variance returns the running unbiased sample variance, or 0 when fewer
// than two samples were added.
func (o *Online) Variance() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Snapshot returns a consistent snapshot of the accumulator.
func (o *Online) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := Snapshot{Count: o.n, Mean: o.mean, Sum: o.total, Min: o.min, Max: o.max}
	if o.n >= 2 {
		s.StdDev = math.Sqrt(o.m2 / float64(o.n-1))
	}
	if o.n == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Snapshot captures the accumulator's current state without resetting it.
type Snapshot struct {
	Count  uint64
	Mean   float64
	Sum    float64
	StdDev float64
	Min    float64
	Max    float64
}
