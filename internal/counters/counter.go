package counters

import (
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Kind classifies a counter's semantics, mirroring HPX's counter types.
type Kind int

const (
	// KindRaw is a plain cumulative or gauge value (counts of parcels,
	// messages, bytes, executed threads).
	KindRaw Kind = iota
	// KindAverage reports the running mean of recorded samples
	// (average parcels per message, average parcel arrival interval,
	// average task overhead).
	KindAverage
	// KindElapsed accumulates time durations (background-work duration,
	// task duration); Value reports seconds.
	KindElapsed
	// KindHistogram reports a bucketed distribution in HPX's flat array
	// encoding (parcel-arrival-histogram).
	KindHistogram
	// KindDerived computes its value on demand from other counters
	// (background-overhead = background-work / task duration).
	KindDerived
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "raw"
	case KindAverage:
		return "average"
	case KindElapsed:
		return "elapsed"
	case KindHistogram:
		return "histogram"
	case KindDerived:
		return "derived"
	default:
		return "unknown"
	}
}

// Counter is a queryable instrumentation point. Implementations are safe
// for concurrent use.
type Counter interface {
	// Path returns the counter's full identity.
	Path() Path
	// Kind returns the counter's semantic class.
	Kind() Kind
	// Value returns the counter's primary scalar reading.
	Value() float64
	// Reset returns the counter to its initial state. Derived counters
	// reset nothing.
	Reset()
}

// Raw is a cumulative/gauge counter backed by an atomic int64.
type Raw struct {
	path Path
	v    atomic.Int64
}

// NewRaw creates a raw counter with the given path.
func NewRaw(path Path) *Raw { return &Raw{path: path} }

// Path implements Counter.
func (c *Raw) Path() Path { return c.path }

// Kind implements Counter.
func (c *Raw) Kind() Kind { return KindRaw }

// Value implements Counter.
func (c *Raw) Value() float64 { return float64(c.v.Load()) }

// Reset implements Counter.
func (c *Raw) Reset() { c.v.Store(0) }

// Inc adds one.
func (c *Raw) Inc() { c.v.Add(1) }

// Add adds delta, which may be negative for gauge semantics.
func (c *Raw) Add(delta int64) { c.v.Add(delta) }

// SetMax raises the counter to v if v exceeds the current value — a
// peak-tracking gauge (the health monitor uses it for the highest
// suspicion level observed per peer).
func (c *Raw) SetMax(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current integral value.
func (c *Raw) Get() int64 { return c.v.Load() }

// Average reports the running mean of recorded samples.
type Average struct {
	path Path
	acc  stats.Online
}

// NewAverage creates an average counter with the given path.
func NewAverage(path Path) *Average { return &Average{path: path} }

// Path implements Counter.
func (c *Average) Path() Path { return c.path }

// Kind implements Counter.
func (c *Average) Kind() Kind { return KindAverage }

// Value implements Counter, returning the running mean.
func (c *Average) Value() float64 { return c.acc.Mean() }

// Reset implements Counter.
func (c *Average) Reset() { c.acc.Reset() }

// Record folds one sample into the average.
func (c *Average) Record(x float64) { c.acc.Add(x) }

// RecordDuration folds one duration sample, in microseconds — the unit
// the paper's time counters report.
func (c *Average) RecordDuration(d time.Duration) {
	c.acc.Add(float64(d) / float64(time.Microsecond))
}

// RecordBatch folds a pre-aggregated batch of count samples with the
// given sum, under a single lock acquisition. The running mean is exactly
// as if each sample had been recorded individually. Hot paths use this to
// amortize counter-mutex contention.
func (c *Average) RecordBatch(count uint64, sum float64) {
	c.acc.AddN(count, sum)
}

// Elapsed accumulates durations; Value reports the total in seconds.
type Elapsed struct {
	path Path
	ns   atomic.Int64
}

// NewElapsed creates an elapsed-time counter with the given path.
func NewElapsed(path Path) *Elapsed { return &Elapsed{path: path} }

// Path implements Counter.
func (c *Elapsed) Path() Path { return c.path }

// Kind implements Counter.
func (c *Elapsed) Kind() Kind { return KindElapsed }

// Value implements Counter, returning accumulated seconds.
func (c *Elapsed) Value() float64 { return float64(c.ns.Load()) / float64(time.Second) }

// Reset implements Counter.
func (c *Elapsed) Reset() { c.ns.Store(0) }

// AddNanos accumulates a pre-summed batch of nanoseconds. Hot paths that
// aggregate many task durations locally flush them here in one atomic
// add, the Elapsed analog of Average.RecordBatch.
func (c *Elapsed) AddNanos(ns int64) { c.ns.Add(ns) }

// Total returns the accumulated duration.
func (c *Elapsed) Total() time.Duration { return time.Duration(c.ns.Load()) }

// HistogramCounter exposes a stats.Histogram through the counter
// interface using HPX's flat array encoding.
type HistogramCounter struct {
	path Path
	h    *stats.Histogram
}

// NewHistogramCounter creates a histogram counter covering [low, high)
// with n buckets; units are chosen by the caller (the parcel-arrival
// histogram uses microseconds).
func NewHistogramCounter(path Path, low, high float64, n int) *HistogramCounter {
	return &HistogramCounter{path: path, h: stats.NewHistogram(low, high, n)}
}

// Path implements Counter.
func (c *HistogramCounter) Path() Path { return c.path }

// Kind implements Counter.
func (c *HistogramCounter) Kind() Kind { return KindHistogram }

// Value implements Counter, returning the total observation count.
func (c *HistogramCounter) Value() float64 { return float64(c.h.Count()) }

// Reset implements Counter.
func (c *HistogramCounter) Reset() { c.h.Reset() }

// ObserveBatch records a batch of samples under one lock acquisition.
func (c *HistogramCounter) ObserveBatch(xs []float64) { c.h.ObserveBatch(xs) }

// Histogram returns the underlying histogram for rich queries.
func (c *HistogramCounter) Histogram() *stats.Histogram { return c.h }

// Derived computes its value on demand via a user function, typically a
// ratio of other counters. The paper's headline metric,
// /threads/background-overhead (Eq. 4), is a derived counter dividing
// background-work duration by task duration.
type Derived struct {
	path Path
	fn   func() float64
}

// NewDerived creates a derived counter evaluating fn at query time.
func NewDerived(path Path, fn func() float64) *Derived {
	return &Derived{path: path, fn: fn}
}

// Path implements Counter.
func (c *Derived) Path() Path { return c.path }

// Kind implements Counter.
func (c *Derived) Kind() Kind { return KindDerived }

// Value implements Counter.
func (c *Derived) Value() float64 { return c.fn() }

// Reset implements Counter; derived counters hold no state.
func (c *Derived) Reset() {}
