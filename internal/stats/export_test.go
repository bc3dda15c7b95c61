package stats

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
	return o.sum
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
