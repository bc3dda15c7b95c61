package coalescing

import "repro/internal/counters"

// ArrivalHistogram exposes the arrival-gap histogram counter, first
// draining any batched samples so the reading is exact.
func (c *Coalescer) ArrivalHistogram() *counters.HistogramCounter {
	c.flushArrivals()
	return c.arrivalHist
}

// DestOverrides returns a copy of the installed per-destination
// overrides.
func (c *Coalescer) DestOverrides() map[int]Params {
	m := *c.destParams.Load()
	out := make(map[int]Params, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// QueuedParcels returns the total number of parcels currently buffered
// across destinations (for tests and diagnostics).
func (c *Coalescer) QueuedParcels() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			n += len(q.parcels)
		}
		sh.mu.Unlock()
	}
	return n
}

// QueuedParcelsDest returns the number of parcels currently buffered
// for one destination.
func (c *Coalescer) QueuedParcelsDest(dst int) int {
	sh := c.shardFor(dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q := sh.queues[dst]; q != nil {
		return len(q.parcels)
	}
	return 0
}

// AvgArrivalUS returns the destination's mean arrival gap in
// microseconds, or -1 when no gap has been observed.
func (s DestStats) AvgArrivalUS() float64 {
	if s.ArrivalCount == 0 {
		return -1
	}
	return s.ArrivalSumUS / float64(s.ArrivalCount)
}
