package main

import (
	"sync/atomic"

	"repro/internal/network"
)

// tap is a benchmark-owned network.Fabric decorator: it forwards every
// call to the fabric it wraps and, while the recorder is on, records one
// span around each Send and around each delivery-handler call. Two taps
// bracket the reliable layer — one above it (what the parcel port calls)
// and one below it (what touches the socket) — so the layer's own cost is
// the outer span minus the inner one, in both directions.
//
// Parenting relies on the calls nesting on one goroutine: the upper tap
// publishes its open Send span in a slot per source locality (one
// scheduler worker per locality sends at a time), and the lower tap's
// Send adopts it; likewise the lower tap publishes its open handler span
// per (source, destination) link, which one fabric goroutine serves, and
// the upper tap's handler adopts that. A retransmission or ACK sent by
// reliable's scanner goroutine while a slot is open is mis-parented;
// selfTimes clips children to the parent's interval, so the error is
// bounded by that overlap and never produces a negative self time.
type tap struct {
	network.Fabric
	rec         *recorder
	sendName    string
	handlerName string

	// openSend[src] / openHandler[src*n+dst]: the span currently open in
	// this tap, read by the tap on the other side of reliable.
	openSend    []atomic.Int64
	openHandler []atomic.Int64
	// parentSend / parentHandler point at the other tap's slots (nil for
	// the tap whose spans are roots in that direction).
	parentSend    []atomic.Int64
	parentHandler []atomic.Int64
}

func newTap(inner network.Fabric, rec *recorder, sendName, handlerName string) *tap {
	n := inner.Localities()
	return &tap{
		Fabric:      inner,
		rec:         rec,
		sendName:    sendName,
		handlerName: handlerName,
		openSend:    make([]atomic.Int64, n),
		openHandler: make([]atomic.Int64, n*n),
	}
}

// bracket wires an upper and a lower tap around the layer between them:
// sends nest upper→lower, deliveries nest lower→upper.
func bracket(upper, lower *tap) {
	lower.parentSend = upper.openSend
	upper.parentHandler = lower.openHandler
}

func (t *tap) Send(src, dst int, payload []byte) error {
	if !t.rec.on.Load() || src < 0 || src >= len(t.openSend) {
		return t.Fabric.Send(src, dst, payload)
	}
	id, start := t.rec.begin(), t.rec.now()
	var parent int64
	if t.parentSend != nil {
		parent = t.parentSend[src].Load()
	}
	t.openSend[src].Store(id)
	err := t.Fabric.Send(src, dst, payload)
	t.openSend[src].Store(0)
	t.rec.end(id, parent, t.sendName, start, -1, src)
	return err
}

func (t *tap) SetHandler(dst int, h network.Handler) {
	n := t.Fabric.Localities()
	t.Fabric.SetHandler(dst, func(src int, payload []byte) {
		if !t.rec.on.Load() || src < 0 || src >= n {
			h(src, payload)
			return
		}
		link := src*n + dst
		id, start := t.rec.begin(), t.rec.now()
		var parent int64
		if t.parentHandler != nil {
			parent = t.parentHandler[link].Load()
		}
		t.openHandler[link].Store(id)
		h(src, payload)
		t.openHandler[link].Store(0)
		t.rec.end(id, parent, t.handlerName, start, -1, dst)
	})
}

// nullFabric is the transport of the port replay: Send recycles the
// payload and reports success, so Port.DoBackgroundWork measures encoding
// and the port's own bookkeeping and nothing below it.
type nullFabric struct {
	n    int
	sent atomic.Uint64
}

func (f *nullFabric) Send(src, dst int, payload []byte) error {
	f.sent.Add(1)
	network.PutPayload(payload)
	return nil
}
func (f *nullFabric) SetHandler(int, network.Handler) {}
func (f *nullFabric) Localities() int                 { return f.n }
func (f *nullFabric) Model() network.CostModel        { return network.CostModel{} }
func (f *nullFabric) Stats() network.Stats            { return network.Stats{MessagesSent: f.sent.Load()} }
func (f *nullFabric) Close() error                    { return nil }

// loopFabric is the transport of the reliable replay: Send hands the
// frame straight to the destination's handler on the caller's goroutine,
// so a Send→deliver round costs what reliable costs and nothing else.
type loopFabric struct {
	handlers []atomic.Pointer[network.Handler]
}

func newLoopFabric(n int) *loopFabric {
	return &loopFabric{handlers: make([]atomic.Pointer[network.Handler], n)}
}

func (f *loopFabric) Send(src, dst int, payload []byte) error {
	if h := f.handlers[dst].Load(); h != nil {
		(*h)(src, payload)
	} else {
		network.PutPayload(payload)
	}
	return nil
}
func (f *loopFabric) SetHandler(dst int, h network.Handler) { f.handlers[dst].Store(&h) }
func (f *loopFabric) Localities() int                       { return len(f.handlers) }
func (f *loopFabric) Model() network.CostModel              { return network.CostModel{} }
func (f *loopFabric) Stats() network.Stats                  { return network.Stats{} }
func (f *loopFabric) Close() error                          { return nil }
