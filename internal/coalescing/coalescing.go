// Package coalescing implements the paper's contribution: per-action
// parcel coalescing with a queue-length parameter, a flush-timer wait
// parameter, a maximum-buffer-size guard, and a sparse-traffic bypass —
// Algorithm 1 of the paper — together with the five coalescing-specific
// performance counters added to HPX during the study.
//
// The design revolves around two parameters: the length of the parcel
// queue (how many parcels to coalesce before sending) and the wait time
// (how many microseconds to wait for the queue to fill before flushing).
// A coalesced message is sent either when the parcel queue is full or
// when the wait time expires; a cap on total buffered bytes protects
// against memory overflow. When parcels arrive further apart than the
// wait time, coalescing is effectively disabled and parcels are sent
// immediately, because making sparse traffic wait for the flush timer
// would only add latency. These flush strategies also prevent deadlocks
// caused by messages never being sent for lack of enough queued data.
//
// A Coalescer is installed on a parcel port as the message handler for
// one action (the analog of HPX_ACTION_USES_MESSAGE_COALESCING); parcels
// for other actions are unaffected. Parameters may be changed at runtime
// — the hook the adaptive tuner uses.
//
// Concurrency design. Put runs inline on every sending task, so the
// coalescer avoids any action-global lock on that path: per-destination
// queues are striped across shardCount lock shards (by destination
// modulo shard count), the tunable parameters and closed flag are read
// through atomics, the arrival clock is a single atomic swap, and the
// arrival-gap statistics are buffered per shard and folded into the
// shared counters in batches. Concurrent senders targeting different
// destinations therefore coalesce without contending; the counters lag
// by at most arrivalBatch samples between reads (every accessor on
// Coalescer flushes the buffers first).
//
// Per-destination parameters. The two tunables can additionally be
// overridden per destination (SetDestParams), layered over the global
// Params: heterogeneous traffic — one hot peer and many cold ones —
// wants a large queue toward the hot destination and effectively no
// coalescing toward the cold ones, a split no single global value can
// express. Overrides live in a copy-on-write map read lock-free on the
// Put path; the per-destination introspection the adaptive controller
// feeds on (arrival gaps, flush causes, bypass counts) is kept inside
// each destination's queue under the shard lock Put already holds. The
// sparse-traffic bypass is judged on the destination's own arrival gap,
// not the action-global one, so a cold destination's parcels still go
// out immediately while a hot destination keeps the action busy.
package coalescing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/parcel"
	"repro/internal/timer"
	"repro/internal/trace"
)

// Params are the tunable coalescing parameters.
type Params struct {
	// NParcels is the parcel-queue length: a destination's queue is
	// flushed as soon as it holds this many parcels. Values <= 1 disable
	// batching (every parcel is sent immediately).
	NParcels int
	// Interval is the wait time: how long after the first queued parcel
	// the queue is flushed even if not full.
	Interval time.Duration
	// MaxBufferBytes flushes a destination's queue early when the
	// estimated wire size of queued parcels exceeds this bound,
	// preventing memory overflow with large-argument parcels.
	// Zero selects DefaultMaxBufferBytes.
	MaxBufferBytes int
}

// DefaultMaxBufferBytes bounds a destination queue's buffered bytes when
// Params.MaxBufferBytes is zero.
const DefaultMaxBufferBytes = 1 << 20

// normalized returns p with defaults applied.
func (p Params) normalized() Params {
	if p.NParcels < 1 {
		p.NParcels = 1
	}
	if p.Interval <= 0 {
		p.Interval = time.Microsecond
	}
	if p.MaxBufferBytes <= 0 {
		p.MaxBufferBytes = DefaultMaxBufferBytes
	}
	return p
}

// String renders the parameter pair the way the paper's figures label
// them.
func (p Params) String() string {
	return fmt.Sprintf("nparcels=%d wait=%dµs", p.NParcels, p.Interval.Microseconds())
}

// Enqueuer is the slice of the parcel port a Coalescer needs: handing a
// ready batch over for transmission. The enqueuer takes ownership of the
// slice.
type Enqueuer interface {
	EnqueueMessage(dst int, parcels []*parcel.Parcel)
}

// ParcelEnqueuer is optionally implemented by enqueuers (the parcel
// port) that can accept a single parcel without a wrapping slice; the
// coalescer uses it on the bypass and pass-through paths to stay
// allocation-free.
type ParcelEnqueuer interface {
	EnqueueParcel(dst int, p *parcel.Parcel)
}

// Options configures a Coalescer beyond its tunable Params.
type Options struct {
	// Locality and Action identify the coalescer's counters.
	Locality int
	Action   string
	// Registry receives the five coalescing counters; nil disables
	// registration (counters still function).
	Registry *counters.Registry
	// TimerService runs the flush timers; required.
	TimerService *timer.Service
	// HistLowUS, HistHighUS, HistBuckets configure the parcel-arrival
	// histogram in microseconds. Zero values select 0..10000µs in 100
	// buckets.
	HistLowUS   float64
	HistHighUS  float64
	HistBuckets int
	// DisableSparseBypass turns off the "send immediately when parcels
	// arrive further apart than the wait time" rule, forcing every parcel
	// through the queue. Exists for the ablation study quantifying what
	// the paper's sparse-traffic rule buys ("it is important to disable
	// parcel coalescing in cases where parcel generation is sparse
	// because the performance would be negatively impacted").
	DisableSparseBypass bool
	// Trace optionally records one flush event per emitted batch; nil
	// disables.
	Trace *trace.Buffer
}

// shardCount stripes the per-destination queues; must be a power of two.
const shardCount = 16

// arrivalBatch is how many arrival-gap samples a shard buffers before
// folding them into the shared average/histogram counters.
const arrivalBatch = 32

// shard is one lock stripe of the coalescer: the destination queues
// whose locality hashes here, plus a local buffer of arrival-gap samples
// awaiting a batched counter update. Padded so neighbouring shard locks
// do not share a cache line.
type shard struct {
	mu     sync.Mutex
	queues map[int]*destQueue
	arrBuf [arrivalBatch]float64
	arrN   int
	_      [64]byte
}

// Coalescer batches outbound parcels of one action per destination.
// It implements parcel.MessageHandler.
type Coalescer struct {
	enq      Enqueuer
	enqOne   ParcelEnqueuer // non-nil when enq supports single parcels
	action   string
	svc      *timer.Service
	noBypass bool
	trc      *trace.Buffer
	locality int
	epoch    time.Time

	params    atomic.Pointer[Params]
	closed    atomic.Bool
	lastArrNS atomic.Int64 // ns since epoch of the previous Put; 0 = none

	// destParams holds per-destination Params overrides layered over the
	// global params: a copy-on-write map so paramsFor is one atomic load
	// on the Put path. Writes (rare: tuner decisions) copy under setMu.
	destParams atomic.Pointer[map[int]Params]
	setMu      sync.Mutex

	shards [shardCount]shard

	// nonEmpty counts destination queues holding parcels, so FlushIdle is
	// one load when nothing is queued; it changes once per batch.
	nonEmpty atomic.Int32

	// The five counters the paper added to HPX.
	parcels     *counters.Raw              // /coalescing/count/parcels@action
	messages    *counters.Raw              // /coalescing/count/messages@action
	avgPerMsg   *counters.Average          // /coalescing/count/average-parcels-per-message@action
	avgArrival  *counters.Average          // /coalescing/time/average-parcel-arrival@action (µs)
	arrivalHist *counters.HistogramCounter // /coalescing/time/parcel-arrival-histogram@action (µs)
}

// DestStats is the cumulative per-destination introspection record: the
// adaptive controller's per-destination inputs. All fields are guarded
// by the owning shard's lock, which Put already holds — per-destination
// accounting adds no synchronization to the hot path.
type DestStats struct {
	// Parcels counts every Put toward this destination.
	Parcels int64
	// Queued counts parcels that entered the destination queue (the
	// remainder were bypassed or passed through uncoalesced).
	Queued int64
	// FlushedFull, FlushedTimer, FlushedBytes and FlushedIdle count
	// emitted batches by cause: queue reached NParcels, wait timer expired,
	// the MaxBufferBytes guard tripped, or the sending locality ran out of
	// work. Explicit flushes (Flush, Close, link-down FlushDest) are not
	// attributed to a cause.
	FlushedFull  int64
	FlushedTimer int64
	FlushedBytes int64
	FlushedIdle  int64
	// Bypass counts parcels sent immediately by the sparse-traffic rule,
	// Direct those sent immediately because NParcels <= 1 was in force:
	// Parcels == Queued + Bypass + Direct at every instant.
	Bypass int64
	Direct int64
	// ArrivalCount and ArrivalSumUS accumulate this destination's
	// arrival gaps (µs), the per-destination analog of the
	// average-parcel-arrival counter.
	ArrivalCount int64
	ArrivalSumUS float64
}

// AvgArrivalUS returns the destination's mean arrival gap in
// microseconds, or -1 when no gap has been observed.
func (s DestStats) AvgArrivalUS() float64 {
	if s.ArrivalCount == 0 {
		return -1
	}
	return s.ArrivalSumUS / float64(s.ArrivalCount)
}

// destQueue buffers parcels for one destination. Invariant (the fix for
// the SetParams re-arm race): whenever the queue is non-empty, its flush
// timer is armed; every mutation below maintains it. The queue also
// carries the destination's arrival clock and cumulative stats, created
// on the first Put toward the destination even when nothing is queued.
type destQueue struct {
	dst       int
	parcels   []*parcel.Parcel
	bytes     int
	flushTmr  *timer.Timer
	lastArrNS int64 // ns since epoch of the previous Put to this dest
	stats     DestStats
}

// New creates a coalescer for one action with the given initial
// parameters.
func New(enq Enqueuer, params Params, opts Options) *Coalescer {
	if opts.TimerService == nil {
		panic("coalescing: Options.TimerService is required")
	}
	lo, hi, nb := opts.HistLowUS, opts.HistHighUS, opts.HistBuckets
	if hi <= lo {
		lo, hi = 0, 10000
	}
	if nb <= 0 {
		nb = 100
	}
	inst := fmt.Sprintf("locality#%d", opts.Locality)
	path := func(name string) counters.Path {
		return counters.Path{Object: "coalescing", Instance: inst, Name: name, Parameters: opts.Action}
	}
	c := &Coalescer{
		enq:         enq,
		action:      opts.Action,
		svc:         opts.TimerService,
		noBypass:    opts.DisableSparseBypass,
		trc:         opts.Trace,
		locality:    opts.Locality,
		epoch:       time.Now(),
		parcels:     counters.NewRaw(path("count/parcels")),
		messages:    counters.NewRaw(path("count/messages")),
		avgPerMsg:   counters.NewAverage(path("count/average-parcels-per-message")),
		avgArrival:  counters.NewAverage(path("time/average-parcel-arrival")),
		arrivalHist: counters.NewHistogramCounter(path("time/parcel-arrival-histogram"), lo, hi, nb),
	}
	c.enqOne, _ = enq.(ParcelEnqueuer)
	norm := params.normalized()
	c.params.Store(&norm)
	c.destParams.Store(new(map[int]Params))
	for i := range c.shards {
		c.shards[i].queues = make(map[int]*destQueue)
	}
	if opts.Registry != nil {
		opts.Registry.MustRegister(c.parcels)
		opts.Registry.MustRegister(c.messages)
		opts.Registry.MustRegister(c.avgPerMsg)
		opts.Registry.MustRegister(c.avgArrival)
		opts.Registry.MustRegister(c.arrivalHist)
	}
	return c
}

// shardFor returns the lock stripe owning destination dst.
func (c *Coalescer) shardFor(dst int) *shard {
	return &c.shards[uint(dst)&(shardCount-1)]
}

// Params returns the current global parameters.
func (c *Coalescer) Params() Params {
	return *c.params.Load()
}

// paramsFor returns the parameters in force for one destination: the
// override when one is installed, the global params otherwise. One
// atomic load in the common no-override case.
func (c *Coalescer) paramsFor(dst int) Params {
	if m := *c.destParams.Load(); len(m) != 0 {
		if p, ok := m[dst]; ok {
			return p
		}
	}
	return *c.params.Load()
}

// DestParams returns the parameters in force for a destination and
// whether they come from a per-destination override.
func (c *Coalescer) DestParams(dst int) (Params, bool) {
	if m := *c.destParams.Load(); len(m) != 0 {
		if p, ok := m[dst]; ok {
			return p, true
		}
	}
	return *c.params.Load(), false
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

// SetDestParams installs a per-destination parameter override layered
// over the global params — the per-destination knob the multi-knob
// adaptive controller turns. The destination's queue is flushed or
// re-armed under the new parameters exactly as SetParams would.
func (c *Coalescer) SetDestParams(dst int, p Params) {
	p = p.normalized()
	c.setMu.Lock()
	old := *c.destParams.Load()
	m := make(map[int]Params, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[dst] = p
	c.destParams.Store(&m)
	c.setMu.Unlock()
	c.applyDest(dst, p)
}

// ClearDestParams removes a destination's override, returning it to the
// global params (re-applied to its queue immediately).
func (c *Coalescer) ClearDestParams(dst int) {
	c.setMu.Lock()
	old := *c.destParams.Load()
	if _, ok := old[dst]; !ok {
		c.setMu.Unlock()
		return
	}
	m := make(map[int]Params, len(old))
	for k, v := range old {
		if k != dst {
			m[k] = v
		}
	}
	c.destParams.Store(&m)
	c.setMu.Unlock()
	c.applyDest(dst, *c.params.Load())
}

// applyDest enforces newly-effective parameters on one destination's
// queue: oversize queues flush now (attributed to the tripped bound),
// non-empty ones re-arm their timer with the new interval.
func (c *Coalescer) applyDest(dst int, p Params) {
	sh := c.shardFor(dst)
	var ready outBatch
	sh.mu.Lock()
	if q := sh.queues[dst]; q != nil {
		switch {
		case len(q.parcels) >= p.NParcels || q.bytes >= p.MaxBufferBytes:
			if len(q.parcels) > 0 {
				q.flushTmr.Stop()
				if q.bytes >= p.MaxBufferBytes && len(q.parcels) < p.NParcels {
					q.stats.FlushedBytes++
				} else {
					q.stats.FlushedFull++
				}
				ready = c.take(q)
			}
		case len(q.parcels) > 0:
			_ = q.flushTmr.Reset(p.Interval)
		}
	}
	sh.mu.Unlock()
	c.emitOne(ready)
}

// SetParams installs new global parameters at runtime. Queues longer
// than their newly-effective NParcels (or over the byte cap) are flushed
// immediately; every other non-empty queue has its flush timer re-armed
// with the new interval, so no queue is ever left non-empty without a
// pending flush — even if its previous timer fired concurrently with
// this call. Destinations with an override keep it: their queues are
// judged against the override, not the new global values.
func (c *Coalescer) SetParams(p Params) {
	p = p.normalized()
	c.params.Store(&p)
	var ready []outBatch
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			eff := c.paramsFor(q.dst)
			switch {
			case len(q.parcels) >= eff.NParcels || q.bytes >= eff.MaxBufferBytes:
				if len(q.parcels) > 0 {
					q.flushTmr.Stop()
					if q.bytes >= eff.MaxBufferBytes && len(q.parcels) < eff.NParcels {
						q.stats.FlushedBytes++
					} else {
						q.stats.FlushedFull++
					}
					ready = append(ready, c.take(q))
				}
			case len(q.parcels) > 0:
				_ = q.flushTmr.Reset(eff.Interval)
			}
		}
		sh.mu.Unlock()
	}
	c.emit(ready)
}

type outBatch struct {
	dst     int
	parcels []*parcel.Parcel
}

// Put implements parcel.MessageHandler: Algorithm 1's coalescing message
// handler. The parcel's DestLocality must be resolved.
func (c *Coalescer) Put(p *parcel.Parcel) {
	if c.closed.Load() {
		// After Close the coalescer degrades to pass-through so no
		// parcel is ever lost.
		c.parcels.Inc()
		c.emitParcel(p.DestLocality, p)
		return
	}
	params := c.paramsFor(p.DestLocality)
	c.parcels.Inc()

	// Arrival-interval instrumentation (time since last parcel, tslp):
	// one atomic swap on a monotonic clock, no lock. This is the
	// action-global clock behind the paper's average-parcel-arrival
	// counter and histogram.
	nowNS := int64(time.Since(c.epoch))
	prevNS := c.lastArrNS.Swap(nowNS)
	tslp := time.Duration(-1)
	if prevNS != 0 && nowNS > prevNS {
		tslp = time.Duration(nowNS - prevNS)
	}

	sh := c.shardFor(p.DestLocality)
	var ready outBatch
	sh.mu.Lock()
	if tslp >= 0 {
		sh.arrBuf[sh.arrN] = float64(tslp) / float64(time.Microsecond)
		sh.arrN++
		if sh.arrN == arrivalBatch {
			c.flushArrivalLocked(sh)
		}
	}
	q := sh.queues[p.DestLocality]
	if q == nil {
		dst := p.DestLocality
		q = &destQueue{dst: dst}
		q.flushTmr = c.svc.NewTimer(func() { c.flushDest(dst) })
		sh.queues[dst] = q
	}
	q.stats.Parcels++

	// Per-destination arrival gap: the signal the bypass rule and the
	// per-destination controller judge this destination's traffic by.
	dgap := time.Duration(-1)
	if q.lastArrNS != 0 && nowNS > q.lastArrNS {
		dgap = time.Duration(nowNS - q.lastArrNS)
		q.stats.ArrivalCount++
		q.stats.ArrivalSumUS += float64(dgap) / float64(time.Microsecond)
	}
	q.lastArrNS = nowNS

	// Sparse-traffic bypass: if this destination's gap since its
	// previous parcel exceeds the wait interval and nothing is queued
	// for it, waiting for the queue to fill would only delay the
	// message — send immediately.
	bypass := !c.noBypass && dgap >= 0 && dgap > params.Interval && len(q.parcels) == 0
	if params.NParcels <= 1 || bypass {
		if bypass {
			q.stats.Bypass++
		} else {
			q.stats.Direct++
		}
		sh.mu.Unlock()
		c.emitParcel(p.DestLocality, p)
		return
	}

	if q.parcels == nil {
		q.parcels = parcel.GetBatch()
	}
	q.parcels = append(q.parcels, p)
	q.bytes += p.WireSize()
	q.stats.Queued++
	if len(q.parcels) == 1 {
		c.nonEmpty.Add(1)
	}

	switch {
	case len(q.parcels) >= params.NParcels:
		// Queue full: stop the timer and flush.
		q.flushTmr.Stop()
		q.stats.FlushedFull++
		ready = c.take(q)
	case q.bytes >= params.MaxBufferBytes:
		// Buffer guard tripped before the queue filled.
		q.flushTmr.Stop()
		q.stats.FlushedBytes++
		ready = c.take(q)
	case len(q.parcels) == 1:
		// First parcel: start the flush timer, from the arrival clock read
		// above rather than a second clock read under the shard lock.
		_ = q.flushTmr.StartAt(c.epoch.Add(time.Duration(nowNS) + params.Interval))
	}
	sh.mu.Unlock()
	c.emitOne(ready)
}

// take removes and returns q's batch, which is not empty; the caller
// holds the shard lock.
func (c *Coalescer) take(q *destQueue) outBatch {
	b := outBatch{dst: q.dst, parcels: q.parcels}
	q.parcels = nil
	q.bytes = 0
	c.nonEmpty.Add(-1)
	return b
}

// flushArrivalLocked folds the shard's buffered arrival samples into the
// shared counters; the caller holds the shard lock.
func (c *Coalescer) flushArrivalLocked(sh *shard) {
	if sh.arrN == 0 {
		return
	}
	sum := 0.0
	for _, v := range sh.arrBuf[:sh.arrN] {
		sum += v
	}
	c.avgArrival.RecordBatch(uint64(sh.arrN), sum)
	c.arrivalHist.ObserveBatch(sh.arrBuf[:sh.arrN])
	sh.arrN = 0
}

// flushArrivals drains every shard's arrival buffer so the counters are
// exact; called on every read path.
func (c *Coalescer) flushArrivals() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.flushArrivalLocked(sh)
		sh.mu.Unlock()
	}
}

// emitParcel hands one parcel to the port as a message of its own.
func (c *Coalescer) emitParcel(dst int, p *parcel.Parcel) {
	c.messages.Inc()
	c.avgPerMsg.Record(1)
	if c.enqOne != nil {
		c.enqOne.EnqueueParcel(dst, p)
		return
	}
	c.enq.EnqueueMessage(dst, []*parcel.Parcel{p})
}

// emitOne hands one ready batch to the port and updates message
// counters; empty batches are ignored.
func (c *Coalescer) emitOne(b outBatch) {
	if len(b.parcels) == 0 {
		return
	}
	c.messages.Inc()
	c.avgPerMsg.Record(float64(len(b.parcels)))
	c.trc.Record(trace.Event{
		Kind: trace.KindFlush, Name: c.action, Locality: c.locality,
		Start: time.Now(), Arg: int64(len(b.parcels)),
	})
	c.enq.EnqueueMessage(b.dst, b.parcels)
}

// emit hands ready batches to the port.
func (c *Coalescer) emit(batches []outBatch) {
	for _, b := range batches {
		c.emitOne(b)
	}
}

// FlushDest implements parcel.DestFlusher: it immediately emits the
// queued parcels of one destination, stopping its flush timer. The parcel
// port calls it when the transport declares the destination's link down —
// coalescing degrades to fail-fast for that destination so queued parcels
// surface send errors promptly instead of waiting out flush timers behind
// a dead link (and Drain terminates).
func (c *Coalescer) FlushDest(dst int) {
	sh := c.shardFor(dst)
	sh.mu.Lock()
	q := sh.queues[dst]
	var ready outBatch
	if q != nil && len(q.parcels) > 0 {
		q.flushTmr.Stop()
		ready = c.take(q)
	}
	sh.mu.Unlock()
	c.emitOne(ready)
}

// flushDest is the flush-timer callback for one destination.
func (c *Coalescer) flushDest(dst int) {
	sh := c.shardFor(dst)
	sh.mu.Lock()
	q := sh.queues[dst]
	var ready outBatch
	if q != nil && len(q.parcels) > 0 {
		q.stats.FlushedTimer++
		ready = c.take(q)
	}
	sh.mu.Unlock()
	c.emitOne(ready)
}

// FlushIdle implements parcel.IdleFlusher: the sending locality has run
// out of tasks and port work, so nothing inside it will add to a queue
// until a message arrives, and the peer that would send one may be
// waiting for these parcels. Every non-empty queue is emitted now and its
// timer stopped. With nothing queued it is one atomic load.
func (c *Coalescer) FlushIdle() {
	if c.nonEmpty.Load() != 0 {
		c.flushIdle()
	}
}

// flushIdle is FlushIdle's slow path, apart so the probe needs no frame.
func (c *Coalescer) flushIdle() {
	ready := make([]outBatch, 0, 8) // does not escape: no allocation
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			if len(q.parcels) > 0 {
				q.flushTmr.Stop()
				q.stats.FlushedIdle++
				ready = append(ready, c.take(q))
			}
		}
		sh.mu.Unlock()
	}
	c.emit(ready)
}

// Flush implements parcel.MessageHandler: it sends every queued parcel
// immediately (explicit AM++-style flush, used at phase boundaries).
func (c *Coalescer) Flush() {
	var ready []outBatch
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			q.flushTmr.Stop()
			if len(q.parcels) > 0 {
				ready = append(ready, c.take(q))
			}
		}
		c.flushArrivalLocked(sh)
		sh.mu.Unlock()
	}
	c.emit(ready)
}

// Close implements parcel.MessageHandler: flushes all queues and stops
// the flush timers. Subsequent Puts pass through uncoalesced.
func (c *Coalescer) Close() {
	c.closed.Store(true)
	var ready []outBatch
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			q.flushTmr.Stop()
			if len(q.parcels) > 0 {
				ready = append(ready, c.take(q))
			}
		}
		sh.queues = make(map[int]*destQueue)
		c.flushArrivalLocked(sh)
		sh.mu.Unlock()
	}
	c.emit(ready)
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

// Stats is a snapshot of the coalescer's counters.
type Stats struct {
	Parcels              int64
	Messages             int64
	AvgParcelsPerMessage float64
	AvgArrivalUS         float64
}

// Stats returns a snapshot of the coalescing counters.
func (c *Coalescer) Stats() Stats {
	c.flushArrivals()
	return Stats{
		Parcels:              c.parcels.Get(),
		Messages:             c.messages.Get(),
		AvgParcelsPerMessage: c.avgPerMsg.Value(),
		AvgArrivalUS:         c.avgArrival.Value(),
	}
}

// DestStats returns the cumulative per-destination record for one
// destination (zero value if the destination has never been sent to).
func (c *Coalescer) DestStats(dst int) DestStats {
	sh := c.shardFor(dst)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q := sh.queues[dst]; q != nil {
		return q.stats
	}
	return DestStats{}
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

// AllDestStats snapshots every destination's cumulative record — the
// bulk read the per-destination controller performs once per sampling
// window.
func (c *Coalescer) AllDestStats() map[int]DestStats {
	out := make(map[int]DestStats)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for dst, q := range sh.queues {
			out[dst] = q.stats
		}
		sh.mu.Unlock()
	}
	return out
}

// ArrivalHistogram exposes the arrival-gap histogram counter, first
// draining any batched samples so the reading is exact.
func (c *Coalescer) ArrivalHistogram() *counters.HistogramCounter {
	c.flushArrivals()
	return c.arrivalHist
}
