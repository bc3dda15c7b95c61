// Package baselines implements the alternative message-aggregation
// strategies the paper positions its design against, as pluggable
// parcel-port message handlers:
//
//   - BufferSize: Active Pebbles / AM++ style. A fixed-size buffer is
//     allocated per destination and the message is sent once the buffer
//     is full; an explicit Flush sends immediately regardless of how much
//     data is buffered. There is no timeout — exactly the property that
//     makes explicit flushes (or a periodic fallback) necessary to avoid
//     deadlock.
//   - PeriodicCheck: Charm++ (TRAM) style. Buffered parcels are sent when
//     the buffer fills, and a periodic check performs an immediate send
//     if no message was sent between subsequent checks.
//
// The paper's own design (internal/coalescing) differs by controlling the
// *number of parcels* per message and by flushing on a per-queue timeout
// armed when the first parcel arrives.
package baselines

import (
	"sync"
	"time"

	"repro/internal/parcel"
)

// Enqueuer is the slice of the parcel port handlers need.
type Enqueuer interface {
	EnqueueMessage(dst int, parcels []*parcel.Parcel)
}

// BufferSize aggregates parcels per destination until the estimated wire
// size reaches BufferBytes, then sends (Active Pebbles / AM++).
type BufferSize struct {
	enq         Enqueuer
	bufferBytes int

	mu     sync.Mutex
	queues map[int]*sizeQueue
	closed bool
}

type sizeQueue struct {
	parcels []*parcel.Parcel
	bytes   int
}

// NewBufferSize creates an AM++-style handler with the given buffer size
// in bytes (minimum 1).
func NewBufferSize(enq Enqueuer, bufferBytes int) *BufferSize {
	if bufferBytes < 1 {
		bufferBytes = 1
	}
	return &BufferSize{enq: enq, bufferBytes: bufferBytes, queues: make(map[int]*sizeQueue)}
}

// Put implements parcel.MessageHandler.
func (h *BufferSize) Put(p *parcel.Parcel) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.enq.EnqueueMessage(p.DestLocality, []*parcel.Parcel{p})
		return
	}
	q := h.queues[p.DestLocality]
	if q == nil {
		q = &sizeQueue{}
		h.queues[p.DestLocality] = q
	}
	q.parcels = append(q.parcels, p)
	q.bytes += p.WireSize()
	var batch []*parcel.Parcel
	if q.bytes >= h.bufferBytes {
		batch = q.parcels
		q.parcels = nil
		q.bytes = 0
	}
	dst := p.DestLocality
	h.mu.Unlock()
	if batch != nil {
		h.enq.EnqueueMessage(dst, batch)
	}
}

// Flush implements parcel.MessageHandler: the explicit flush Active
// Pebbles and AM++ provide.
func (h *BufferSize) Flush() {
	type batch struct {
		dst     int
		parcels []*parcel.Parcel
	}
	var out []batch
	h.mu.Lock()
	for dst, q := range h.queues {
		if len(q.parcels) > 0 {
			out = append(out, batch{dst, q.parcels})
			q.parcels = nil
			q.bytes = 0
		}
	}
	h.mu.Unlock()
	for _, b := range out {
		h.enq.EnqueueMessage(b.dst, b.parcels)
	}
}

// Close implements parcel.MessageHandler.
func (h *BufferSize) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.Flush()
}

// PeriodicCheck aggregates like BufferSize but a background ticker
// flushes whenever no message was sent since the previous check
// (Charm++'s periodic-check mechanism).
type PeriodicCheck struct {
	enq         Enqueuer
	bufferBytes int
	period      time.Duration

	mu        sync.Mutex
	queues    map[int]*sizeQueue
	sentSince bool
	closed    bool
	stop      chan struct{}
	done      chan struct{}
}

// NewPeriodicCheck creates a Charm++-style handler: buffer-size batching
// plus a checker goroutine running every period.
func NewPeriodicCheck(enq Enqueuer, bufferBytes int, period time.Duration) *PeriodicCheck {
	if bufferBytes < 1 {
		bufferBytes = 1
	}
	if period <= 0 {
		period = time.Millisecond
	}
	h := &PeriodicCheck{
		enq:         enq,
		bufferBytes: bufferBytes,
		period:      period,
		queues:      make(map[int]*sizeQueue),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go h.checker()
	return h
}

func (h *PeriodicCheck) checker() {
	defer close(h.done)
	ticker := time.NewTicker(h.period)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
			h.mu.Lock()
			sent := h.sentSince
			h.sentSince = false
			h.mu.Unlock()
			if !sent {
				h.Flush()
			}
		}
	}
}

// Put implements parcel.MessageHandler.
func (h *PeriodicCheck) Put(p *parcel.Parcel) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.enq.EnqueueMessage(p.DestLocality, []*parcel.Parcel{p})
		return
	}
	q := h.queues[p.DestLocality]
	if q == nil {
		q = &sizeQueue{}
		h.queues[p.DestLocality] = q
	}
	q.parcels = append(q.parcels, p)
	q.bytes += p.WireSize()
	var batch []*parcel.Parcel
	if q.bytes >= h.bufferBytes {
		batch = q.parcels
		q.parcels = nil
		q.bytes = 0
		h.sentSince = true
	}
	dst := p.DestLocality
	h.mu.Unlock()
	if batch != nil {
		h.enq.EnqueueMessage(dst, batch)
	}
}

// Flush implements parcel.MessageHandler.
func (h *PeriodicCheck) Flush() {
	type batch struct {
		dst     int
		parcels []*parcel.Parcel
	}
	var out []batch
	h.mu.Lock()
	for dst, q := range h.queues {
		if len(q.parcels) > 0 {
			out = append(out, batch{dst, q.parcels})
			q.parcels = nil
			q.bytes = 0
			h.sentSince = true
		}
	}
	h.mu.Unlock()
	for _, b := range out {
		h.enq.EnqueueMessage(b.dst, b.parcels)
	}
}

// Close implements parcel.MessageHandler, stopping the checker.
func (h *PeriodicCheck) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	close(h.stop)
	<-h.done
	h.Flush()
}
