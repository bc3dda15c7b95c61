package parcel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/ring"
	"repro/internal/timer"
	"repro/internal/trace"
)

// MessageHandler is a per-action outbound policy plugged into a Port.
// When an action has a handler registered (the paper's
// HPX_ACTION_USES_MESSAGE_COALESCING macro), every outbound parcel for
// that action is routed through it; the handler decides when to hand
// batches back to the port for transmission via EnqueueMessage.
type MessageHandler interface {
	// Put takes ownership of an outbound parcel whose DestLocality is
	// resolved and later hands it to the port, which recycles it once
	// encoded. It must be fast: it runs inline on the sending task.
	Put(p *Parcel)
	// Flush forces all queued parcels to be handed to the port
	// immediately, regardless of policy (AM++-style explicit flush).
	Flush()
	// Close flushes and releases handler resources (timers).
	Close()
}

// DestFlusher is optionally implemented by message handlers (the
// coalescer) that can flush a single destination's queue on demand. The
// port uses it to degrade coalescing for a destination whose link the
// transport has declared down: queued parcels are emitted immediately and
// fail fast instead of idling behind flush timers.
type DestFlusher interface {
	FlushDest(dst int)
}

// IdleFlusher is optionally implemented by message handlers (the
// coalescer) that hold parcels back waiting for more. The port calls it,
// on a scheduler worker, when its locality has run out of work: what the
// handler holds goes out now instead of waiting for a flush timer. With
// nothing held it must cost no more than an atomic load.
type IdleFlusher interface {
	FlushIdle()
}

// Resolver maps a GID to its hosting locality (the AGAS lookup).
type Resolver func(agas.GID) (int, error)

// Deliver consumes a received parcel, typically by spawning a task.
type Deliver func(p *Parcel)

// ErrPortClosed is returned by Put after Close.
var ErrPortClosed = errors.New("parcel: port closed")

// Config configures a Port.
type Config struct {
	// Locality is this port's locality id.
	Locality int
	// Fabric is the transport shared by all localities.
	Fabric network.Fabric
	// Resolve maps destination GIDs to localities.
	Resolve Resolver
	// Deliver consumes received parcels.
	Deliver Deliver
	// Registry receives this port's performance counters; nil disables
	// registration.
	Registry *counters.Registry
	// RxQueueDepth bounds buffered undecoded incoming messages
	// (default 65536). When the queue is full further messages are
	// dropped and counted by parcels/count/rx-dropped; the fabric
	// delivery goroutine is never blocked.
	RxQueueDepth int
	// Trace optionally records message-level events; nil disables.
	Trace *trace.Buffer
	// Wake, when set, is called after every message queued for background
	// work: outbound ones (direct parcels, handler batches, timer flushes)
	// and inbound ones pushed by the fabric. The runtime points it at the
	// locality scheduler, which wakes a parked worker to do the work. It
	// runs on the queuing goroutine — a sending task, the coalescer's
	// timer goroutine, the fabric's delivery goroutine — so it must be
	// cheap and must never block.
	Wake func()
}

// Port is a locality's parcel endpoint. Outbound parcels enter via Put
// (inline, cheap), are optionally batched by per-action message handlers,
// and are serialized and transmitted by DoBackgroundWork, which scheduler
// workers invoke when idle. Inbound wire messages are queued by the
// fabric's delivery goroutine and likewise decoded by DoBackgroundWork.
// All time spent in DoBackgroundWork is the "background work" of the
// paper's Section III metrics.
//
// The transmission pipeline is allocation-free in steady state: parcels
// from Get return to their pool once encoded, single parcels travel
// through the queue without a wrapping slice, batch slices are recycled
// through the package batch pool, and wire payloads are
// encoded into pooled buffers (internal/network) that the receiving port
// releases after decoding.
type Port struct {
	locality int
	fabric   network.Fabric
	resolve  Resolver
	deliver  Deliver
	wake     func()

	handlersMu sync.RWMutex
	handlers   map[string]MessageHandler
	// idleFlushers is the subset of handlers implementing IdleFlusher,
	// republished under handlersMu so FlushIdle reads it without a lock.
	idleFlushers atomic.Pointer[[]IdleFlusher]

	trc *trace.Buffer
	// outQ holds ready wire messages for every destination in the order
	// they were queued; sendOne transmits the oldest. outPending counts
	// them so Pending and an idle sendOne need no lock.
	outMu      sync.Mutex
	outQ       ring.Buffer[outMessage]
	outPending atomic.Int64
	// rxQ holds undecoded incoming messages, at most rxDepth; it grows on
	// demand, so a port does not pay for its bound up front.
	rxMu    sync.Mutex
	rxQ     ring.Buffer[rxMessage]
	rxDepth int
	// rxPending counts messages in rxQ. It is raised before the push and
	// lowered after the pop, so it never under-reports: Pending needs an
	// atomic it can order against the scheduler's parked-worker count
	// without taking rxMu.
	rxPending atomic.Int64
	closed    atomic.Bool

	// onMessage, when set, observes the source of every wire message as
	// it arrives (on the fabric delivery goroutine, before queueing). The
	// health monitor uses it to treat all received traffic as piggybacked
	// heartbeats; it must be cheap and must never block.
	onMessage atomic.Pointer[func(src int)]
	// lastSend records, per destination, when this port last handed the
	// fabric a message (unix nanos; 0 = never). The health monitor reads
	// it to send explicit heartbeats only on idle links.
	lastSend []atomic.Int64
	// downDst marks destinations declared dead: Put fails fast with
	// network.ErrLocalityDown and already-queued messages are discarded
	// at transmission instead of paying wire costs.
	downDst []atomic.Bool

	// Counters (always allocated; optionally registered).
	parcelsSent  *counters.Raw
	parcelsRecvd *counters.Raw
	messagesSent *counters.Raw
	messagesRcvd *counters.Raw
	bytesSent    *counters.Raw
	bytesRecvd   *counters.Raw
	sendErrors   *counters.Raw
	decodeErrors *counters.Raw
	rxDropped    *counters.Raw
	linkDown     *counters.Raw
}

// outMessage is one wire message awaiting transmission. Exactly one of
// single and parcels is set: the direct (uncoalesced) path carries its
// parcel inline so enqueueing a single parcel allocates nothing.
type outMessage struct {
	dst     int
	single  *Parcel
	parcels []*Parcel
}

// release ends the port's hold on m's parcels once they are encoded or
// discarded: parcels from Get go back to their pool, and so does the
// batch slice.
func (m outMessage) release() {
	if m.single != nil {
		recycle(m.single)
		return
	}
	for _, pc := range m.parcels {
		recycle(pc)
	}
	PutBatch(m.parcels)
}

type rxMessage struct {
	src     int
	payload []byte
}

// NewPort creates a parcel port and installs its fabric handler.
func NewPort(cfg Config) *Port {
	depth := cfg.RxQueueDepth
	if depth <= 0 {
		depth = 1 << 16
	}
	inst := fmt.Sprintf("locality#%d", cfg.Locality)
	mk := func(object, name string) *counters.Raw {
		return counters.NewRaw(counters.Path{Object: object, Instance: inst, Name: name})
	}
	p := &Port{
		locality:     cfg.Locality,
		fabric:       cfg.Fabric,
		resolve:      cfg.Resolve,
		deliver:      cfg.Deliver,
		wake:         cfg.Wake,
		handlers:     make(map[string]MessageHandler),
		trc:          cfg.Trace,
		rxDepth:      depth,
		lastSend:     make([]atomic.Int64, cfg.Fabric.Localities()),
		downDst:      make([]atomic.Bool, cfg.Fabric.Localities()),
		parcelsSent:  mk("parcels", "count/sent"),
		parcelsRecvd: mk("parcels", "count/received"),
		messagesSent: mk("messages", "count/sent"),
		messagesRcvd: mk("messages", "count/received"),
		bytesSent:    mk("data", "count/sent-bytes"),
		bytesRecvd:   mk("data", "count/received-bytes"),
		sendErrors:   mk("parcels", "count/send-errors"),
		decodeErrors: mk("parcels", "count/decode-errors"),
		rxDropped:    mk("parcels", "count/rx-dropped"),
		linkDown:     mk("parcels", "count/link-down"),
	}
	if cfg.Registry != nil {
		for _, c := range []*counters.Raw{
			p.parcelsSent, p.parcelsRecvd, p.messagesSent, p.messagesRcvd,
			p.bytesSent, p.bytesRecvd, p.sendErrors, p.decodeErrors, p.rxDropped,
			p.linkDown,
		} {
			cfg.Registry.MustRegister(c)
		}
	}
	cfg.Fabric.SetHandler(cfg.Locality, p.onWireMessage)
	return p
}

// SetOnMessage installs (or with nil removes) a per-wire-message receive
// observer. It runs on the fabric delivery goroutine before the message
// is queued, so it must be cheap and non-blocking; the health monitor
// uses it to count every received message as a piggybacked heartbeat.
func (p *Port) SetOnMessage(fn func(src int)) {
	if fn == nil {
		p.onMessage.Store(nil)
		return
	}
	p.onMessage.Store(&fn)
}

// LastSend reports when this port last handed the fabric a message for
// dst (zero time for never). The health monitor's idle-link heartbeat
// timer keys off it.
func (p *Port) LastSend(dst int) time.Time {
	if dst < 0 || dst >= len(p.lastSend) {
		return time.Time{}
	}
	ns := p.lastSend[dst].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// FailDest marks a destination locality dead: subsequent Puts targeting
// it fail fast with network.ErrLocalityDown, messages already queued for
// it are discarded at transmission (counted as send errors under
// parcels/count/link-down), and coalescing queues holding parcels for it
// are flushed so nothing idles behind a flush timer waiting on a corpse.
// Idempotent; ReopenDest reverses it when the destination rejoins.
func (p *Port) FailDest(dst int) {
	if dst < 0 || dst >= len(p.downDst) || p.downDst[dst].Swap(true) {
		return
	}
	p.flushDest(dst)
}

// ReopenDest reverses FailDest for a destination that has rejoined the
// cluster: subsequent Puts targeting it are accepted again. Parcels
// discarded while the destination was down stay discarded — replaying
// them is the continuation-retry layer's job, not the port's.
func (p *Port) ReopenDest(dst int) {
	if dst >= 0 && dst < len(p.downDst) {
		p.downDst[dst].Store(false)
	}
}

// DestDown reports whether FailDest has been called for dst.
func (p *Port) DestDown(dst int) bool {
	return dst >= 0 && dst < len(p.downDst) && p.downDst[dst].Load()
}

// SetMessageHandler installs (or with nil removes) the outbound policy
// for an action. Installing a handler for an action that already has one
// closes the old handler first.
func (p *Port) SetMessageHandler(action string, h MessageHandler) {
	p.handlersMu.Lock()
	old := p.handlers[action]
	if h == nil {
		delete(p.handlers, action)
	} else {
		p.handlers[action] = h
	}
	p.setIdleFlushersLocked()
	p.handlersMu.Unlock()
	if old != nil {
		old.Close()
	}
}

// setIdleFlushersLocked republishes the idle-flushable subset of
// p.handlers; the caller holds handlersMu.
func (p *Port) setIdleFlushersLocked() {
	var fs []IdleFlusher
	for _, h := range p.handlers {
		if f, ok := h.(IdleFlusher); ok {
			fs = append(fs, f)
		}
	}
	p.idleFlushers.Store(&fs)
}

// FlushIdle tells the handlers that hold parcels back that this locality
// has run out of work (see IdleFlusher); what they enqueue in response is
// transmitted by DoBackgroundWork like any other message.
func (p *Port) FlushIdle() {
	if fs := p.idleFlushers.Load(); fs != nil {
		for _, f := range *fs {
			f.FlushIdle()
		}
	}
}

// Put routes one outbound parcel. It resolves the destination locality if
// needed, then either hands the parcel to the action's message handler or
// enqueues it for direct transmission. Put is called inline from the
// sending task and does not itself serialize or transmit.
//
// Ownership: on success the port holds pcl until its message is encoded
// or discarded (a send error, a destination failed by FailDest). A parcel
// from Get is then recycled, so the caller must not touch it again; a
// literal parcel is never recycled and may be Put again once its message
// is out. pcl.Args is read, not copied, until the encode: the caller must
// not write to it before then. On error nothing is taken.
func (p *Port) Put(pcl *Parcel) error {
	if p.closed.Load() {
		return ErrPortClosed
	}
	if pcl.DestLocality < 0 {
		loc, err := p.resolve(pcl.Dest)
		if err != nil {
			return fmt.Errorf("parcel: resolving %v: %w", pcl.Dest, err)
		}
		pcl.DestLocality = loc
	}
	if pcl.DestLocality < len(p.downDst) && p.downDst[pcl.DestLocality].Load() {
		return fmt.Errorf("parcel: %w: locality %d", network.ErrLocalityDown, pcl.DestLocality)
	}
	p.handlersMu.RLock()
	h := p.handlers[pcl.Action]
	p.handlersMu.RUnlock()
	if h != nil {
		h.Put(pcl)
		return nil
	}
	p.enqueue(outMessage{dst: pcl.DestLocality, single: pcl})
	return nil
}

// EnqueueMessage schedules one wire message carrying the given parcels
// for transmission by background work. Message handlers call this when
// their policy decides a batch is ready. EnqueueMessage takes ownership
// of the parcels slice: after transmission the port recycles it through
// GetBatch/PutBatch, so the caller must not retain or reuse it.
func (p *Port) EnqueueMessage(dst int, parcels []*Parcel) {
	if len(parcels) == 0 {
		return
	}
	p.enqueue(outMessage{dst: dst, parcels: parcels})
}

// EnqueueParcel schedules a single parcel as its own wire message,
// without the wrapping slice EnqueueMessage needs. Handlers whose policy
// sends a lone parcel (sparse-traffic bypass, pass-through) use it to
// keep the uncoalesced path allocation-free.
func (p *Port) EnqueueParcel(dst int, pcl *Parcel) {
	p.enqueue(outMessage{dst: dst, single: pcl})
}

// enqueue appends one ready wire message to the outbound queue and
// signals the scheduler that background work exists.
func (p *Port) enqueue(m outMessage) {
	p.outMu.Lock()
	p.outQ.Push(m)
	p.outMu.Unlock()
	p.outPending.Add(1)
	if p.wake != nil {
		p.wake()
	}
}

// PendingOutbound returns the number of wire messages waiting for
// background transmission.
func (p *Port) PendingOutbound() int {
	return int(p.outPending.Load())
}

// Pending reports whether DoBackgroundWork has anything to do: an
// outbound message to transmit or a received one to decode. A worker
// about to park calls it after publishing itself as parked; both counts
// are raised before Wake runs, so either Wake sees the parked worker or
// the worker sees the message.
func (p *Port) Pending() bool {
	return p.outPending.Load() > 0 || p.rxPending.Load() > 0
}

// onWireMessage runs on the fabric delivery goroutine: it must only
// queue, and it must never block — a stalled consumer would otherwise
// wedge the fabric for every destination sharing the delivery goroutine.
// When the receive queue is full the message is dropped and counted by
// parcels/count/rx-dropped (parcel-level reliability is the job of
// higher layers; see continuation retries).
func (p *Port) onWireMessage(src int, payload []byte) {
	if p.closed.Load() {
		network.PutPayload(payload)
		return
	}
	if fn := p.onMessage.Load(); fn != nil {
		(*fn)(src)
	}
	p.rxPending.Add(1)
	p.rxMu.Lock()
	full := p.rxQ.Len() >= p.rxDepth
	if !full {
		p.rxQ.Push(rxMessage{src: src, payload: payload})
	}
	p.rxMu.Unlock()
	switch {
	case full:
		p.rxPending.Add(-1)
		p.rxDropped.Inc()
		network.PutPayload(payload)
	case p.wake != nil:
		p.wake()
	}
}

// DoBackgroundWork performs up to maxUnits units of network background
// work — transmitting queued outbound messages (serialization plus the
// transport's per-message send cost) and decoding received messages
// (per-message receive cost plus deserialization, then delivery). It
// returns the number of units performed; zero means there was nothing to
// do. Scheduler workers call this when they have no runnable task and
// account the elapsed time as background-work duration.
func (p *Port) DoBackgroundWork(maxUnits int) int {
	done := 0
	for done < maxUnits {
		if p.sendOne() {
			done++
			continue
		}
		if p.receiveOne() {
			done++
			continue
		}
		break
	}
	return done
}

// sendOne transmits the oldest queued outbound message, if any: the port
// sends in the order messages were queued, whatever their destinations.
func (p *Port) sendOne() bool {
	if p.outPending.Load() == 0 {
		return false
	}
	p.outMu.Lock()
	m, ok := p.outQ.Pop()
	p.outMu.Unlock()
	if !ok {
		return false
	}
	p.outPending.Add(-1)
	p.transmit(m)
	return true
}

// transmit serializes one wire message into a pooled payload buffer and
// hands it to the fabric. On success buffer ownership passes to the
// fabric (and ultimately the receiving port); on failure the buffer is
// recycled here. The message's parcels and batch slice are recycled as
// soon as it is encoded or discarded.
func (p *Port) transmit(m outMessage) {
	if m.dst < len(p.downDst) && p.downDst[m.dst].Load() {
		// The destination died after this message was queued: discard it
		// without paying serialization or wire costs. The parcels are
		// dropped, not retried — crash-stop recovery is the job of the
		// runtime's continuation poisoning and retry policy.
		p.sendErrors.Inc()
		p.linkDown.Inc()
		m.release()
		return
	}
	start := time.Now()
	count, size := 1, 0
	if m.single != nil {
		size = m.single.encodedSize()
	} else {
		count = len(m.parcels)
		for _, pc := range m.parcels {
			size += pc.encodedSize()
		}
	}
	// The slack lets the reliability layer append its trailer in place.
	buf := network.GetPayload(bundleSize(count, size) + network.FrameSlack)
	payload := appendBundleHeader(buf[:0], count)
	if m.single != nil {
		payload = appendParcel(payload, m.single)
	} else {
		for _, pc := range m.parcels {
			payload = appendParcel(payload, pc)
		}
	}
	m.release()
	nbytes := len(payload)
	err := p.fabric.Send(p.locality, m.dst, payload)
	if err != nil {
		p.sendErrors.Inc()
		network.PutPayload(payload)
		if errors.Is(err, network.ErrLinkDown) || errors.Is(err, network.ErrLocalityDown) {
			// The transport gave up on this destination: flush the
			// coalescing queues targeting it so buffered parcels fail
			// fast instead of waiting out flush timers behind a dead
			// link, and count the event.
			p.linkDown.Inc()
			p.flushDest(m.dst)
		}
		return
	}
	if m.dst < len(p.lastSend) {
		p.lastSend[m.dst].Store(time.Now().UnixNano())
	}
	p.parcelsSent.Add(int64(count))
	p.messagesSent.Inc()
	p.bytesSent.Add(int64(nbytes))
	p.trc.RecordSpan(trace.KindMessage, "send", p.locality, start, int64(nbytes))
}

// receiveOne decodes one queued incoming message, if any.
//
// The decode is the zero-allocation borrowing one: on success payload
// ownership transfers to the decoded bundle, each delivered parcel
// aliases the wire buffer until its consumer Releases it, and the batch
// slice goes back to the pool as soon as dispatch is done (the parcels
// outlive it).
func (p *Port) receiveOne() bool {
	if p.rxPending.Load() == 0 {
		return false
	}
	p.rxMu.Lock()
	m, ok := p.rxQ.Pop()
	p.rxMu.Unlock()
	if !ok {
		return false
	}
	p.rxPending.Add(-1)
	// Pay the modeled fixed per-message receive CPU cost here, on the
	// worker doing background work.
	timer.Spin(p.fabric.Model().RecvCPU(len(m.payload)))
	nbytes := len(m.payload)
	parcels, err := DecodeBundleBorrowed(m.payload)
	if err != nil {
		// On error the decoder leaves payload ownership with the
		// caller; recycle it here.
		network.PutPayload(m.payload)
		p.decodeErrors.Inc()
		return true
	}
	p.messagesRcvd.Inc()
	p.bytesRecvd.Add(int64(nbytes))
	p.parcelsRecvd.Add(int64(len(parcels)))
	p.trc.Record(trace.Event{
		Kind: trace.KindMessage, Name: "recv", Locality: p.locality,
		Start: time.Now(), Arg: int64(nbytes),
	})
	for _, pcl := range parcels {
		p.deliver(pcl)
	}
	PutBatch(parcels)
	return true
}

// flushDest asks every handler that supports per-destination flushing to
// emit its queue for dst. Handlers without DestFlusher are left alone — a
// full Flush would punish healthy destinations for one dead link.
func (p *Port) flushDest(dst int) {
	p.handlersMu.RLock()
	var hs []DestFlusher
	for _, h := range p.handlers {
		if df, ok := h.(DestFlusher); ok {
			hs = append(hs, df)
		}
	}
	p.handlersMu.RUnlock()
	for _, df := range hs {
		df.FlushDest(dst)
	}
}

// FlushHandlers forces every registered message handler to hand its
// queued parcels to the port (used at phase boundaries and shutdown).
func (p *Port) FlushHandlers() {
	p.handlersMu.RLock()
	hs := make([]MessageHandler, 0, len(p.handlers))
	for _, h := range p.handlers {
		hs = append(hs, h)
	}
	p.handlersMu.RUnlock()
	for _, h := range hs {
		h.Flush()
	}
}

// Drain performs background work until both queues are empty, bounded by
// the timeout; it reports whether everything drained. Idle iterations
// back off (yield, then short sleeps) instead of spinning, so a Drain
// waiting on in-flight fabric deliveries does not burn a core.
func (p *Port) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	idle := 0
	for time.Now().Before(deadline) {
		worked := p.DoBackgroundWork(64)
		if worked == 0 && !p.Pending() {
			return true
		}
		if worked == 0 {
			idle++
			if idle <= 4 {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		} else {
			idle = 0
		}
	}
	return false
}

// Stats is a snapshot of the port's counters.
type Stats struct {
	ParcelsSent, ParcelsReceived   int64
	MessagesSent, MessagesReceived int64
	BytesSent, BytesReceived       int64
	SendErrors, DecodeErrors       int64
	RxDropped                      int64
	LinkDown                       int64
}

// Stats returns a snapshot of the port's traffic counters.
func (p *Port) Stats() Stats {
	return Stats{
		ParcelsSent:      p.parcelsSent.Get(),
		ParcelsReceived:  p.parcelsRecvd.Get(),
		MessagesSent:     p.messagesSent.Get(),
		MessagesReceived: p.messagesRcvd.Get(),
		BytesSent:        p.bytesSent.Get(),
		BytesReceived:    p.bytesRecvd.Get(),
		SendErrors:       p.sendErrors.Get(),
		DecodeErrors:     p.decodeErrors.Get(),
		RxDropped:        p.rxDropped.Get(),
		LinkDown:         p.linkDown.Get(),
	}
}

// Close flushes handlers and marks the port closed. In-flight incoming
// messages are dropped.
func (p *Port) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.handlersMu.Lock()
	hs := p.handlers
	p.handlers = make(map[string]MessageHandler)
	p.setIdleFlushersLocked()
	p.handlersMu.Unlock()
	for _, h := range hs {
		h.Close()
	}
}
