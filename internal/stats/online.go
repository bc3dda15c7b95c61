package stats

import "sync"

// Online accumulates samples one at a time into a count and a sum, from
// which it reports the running mean without storing the samples. It is
// the building block for the runtime's "average" performance counters
// (for example /coalescing/count/average-parcels-per-message and
// /threads/time/average-overhead), which must be updated from hot paths
// and queried concurrently.
//
// The zero value is an empty accumulator ready for use. Online is safe for
// concurrent use.
type Online struct {
	mu  sync.Mutex
	n   uint64
	sum float64
}

// Add folds one sample into the accumulator.
func (o *Online) Add(x float64) {
	o.mu.Lock()
	o.n++
	o.sum += x
	o.mu.Unlock()
}

// AddN folds a pre-aggregated batch of count samples with the given sum
// into the accumulator, exactly as if each sample had been added alone.
// Counters that receive batched updates from worker threads use it.
func (o *Online) AddN(count uint64, sum float64) {
	if count == 0 {
		return
	}
	o.mu.Lock()
	o.n += count
	o.sum += sum
	o.mu.Unlock()
}

// Mean returns the running mean, or 0 when no samples were added.
func (o *Online) Mean() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n)
}

// Reset discards all accumulated state, returning the accumulator to its
// zero value. Counters with reset-at-read semantics call this after a
// snapshot.
func (o *Online) Reset() {
	o.mu.Lock()
	o.n, o.sum = 0, 0
	o.mu.Unlock()
}
