package stats

import "sync"

// Online accumulates samples one at a time using Welford's algorithm,
// providing numerically stable running mean and variance without storing
// the samples. It is the building block for the runtime's "average"
// performance counters (for example /coalescing/count/average-parcels-per-
// message and /threads/time/average-overhead), which must be updated from
// hot paths and queried concurrently.
//
// The zero value is an empty accumulator ready for use. Online is safe for
// concurrent use.
type Online struct {
	mu    sync.Mutex
	n     uint64
	mean  float64
	m2    float64
	min   float64
	max   float64
	total float64
}

// Add folds one sample into the accumulator.
func (o *Online) Add(x float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.total += x
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// AddN folds a pre-aggregated batch with the given count and sum into the
// accumulator, treating the batch as count samples each equal to
// sum/count. Variance contributions within the batch are lost; min/max are
// updated against the batch mean. AddN is used by counters that receive
// batched updates from worker threads.
func (o *Online) AddN(count uint64, sum float64) {
	if count == 0 {
		return
	}
	batchMean := sum / float64(count)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == 0 {
		o.min, o.max = batchMean, batchMean
	} else {
		if batchMean < o.min {
			o.min = batchMean
		}
		if batchMean > o.max {
			o.max = batchMean
		}
	}
	// Chan et al. parallel-update formula for combining a batch whose
	// internal variance is unknown (treated as zero).
	delta := batchMean - o.mean
	na := float64(o.n)
	nb := float64(count)
	o.n += count
	o.total += sum
	o.mean += delta * nb / (na + nb)
	o.m2 += delta * delta * na * nb / (na + nb)
}

// Mean returns the running mean, or 0 when no samples were added.
func (o *Online) Mean() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mean
}

// Reset discards all accumulated state, returning the accumulator to its
// zero value. Counters with reset-at-read semantics call this after a
// snapshot.
func (o *Online) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n, o.mean, o.m2, o.min, o.max, o.total = 0, 0, 0, 0, 0, 0
}
