// Package reliable implements a per-link reliable-delivery protocol
// between the parcel port and the network fabric.
//
// The paper's experiments ran HPX over Intel MPI, which guarantees
// delivery; this reproduction's substitutes do not. SimFabric's fault
// hooks can drop, duplicate, delay and reorder wire messages, and
// TCPFabric loses everything in flight on a connection error — without a
// reliability layer a single injected fault deadlocks Port.Drain and
// corrupts the Section III counters the adaptive tuners feed on. This
// package makes loss a first-class, measurable scenario: every wire
// message carries a monotone per-link sequence number and a piggybacked
// cumulative ACK, and the sender keeps its unacknowledged frames in a
// window until the receiver has them. Loss is detected by
// acknowledgement: a receiver that sees a gap answers at once with a
// selective ACK naming what it holds beyond the gap, and the sender
// resends a hole as soon as three later frames are known to have arrived
// (RFC 6675's DupThresh). One retransmission timer per link, its timeout
// estimated from measured round trips (RFC 6298), covers what
// acknowledgements cannot: a lost tail, a lost retransmission, lost ACKs.
// A bounded budget of consecutive timeouts surfaces ErrLinkDown instead
// of retrying forever. The receiver maintains a cumulative dedup window
// and a bounded reorder buffer so handlers observe exactly-once, in-order
// delivery no matter what the wire does underneath.
//
// Frame format (little-endian): the inner payload, then a 26-byte
// trailer. The protocol bytes follow the payload so that a frame minus
// its trailer is the payload at the buffer's own base and capacity: the
// sender frames in place, in the buffer it retains for retransmission,
// and the receiver hands the buffer a frame arrived in up to the port —
// this layer never copies a payload (ownership protocol: network/buf.go).
//
//	byte  0     magic (0xD7)
//	byte  1     kind: 1 = data, 2 = standalone ACK, 3 = probe
//	bytes 2-9   sequence number (data frames; 0 otherwise)
//	bytes 10-17 cumulative ACK for the reverse link
//	bytes 18-21 link session epoch of the data stream (0 on ACK/probe)
//	bytes 22-25 session epoch the cumulative ACK refers to
//
// Sequence numbers start at 1 per (src,dst) link *within a session
// epoch*; a cumulative ACK of k acknowledges every data frame with
// seq <= k in the epoch it names. A standalone ACK sent while the
// receiver's reorder buffer is non-empty carries a 32-byte SACK bitmap as
// its payload: bit i (LSB first) is set when frame k+1+i is buffered, so
// bit 0 is never set. An ACK with an empty payload is a plain cumulative
// ACK. Standalone ACK frames are themselves unreliable — a lost ACK is
// repaired by the next one or, at worst, by the retransmission timer,
// whose duplicate the receiver's dedup window suppresses.
//
// Session epochs make partition heal safe: when a peer is re-opened
// after having been failed (ReopenPeer), the sender bumps the link's
// epoch and restarts sequences at 1. The receiver drops data frames
// from an older epoch (pre-partition retransmits still in flight) and
// ignores ACKs naming an epoch other than the sender's current one
// (stale ACKs from before the partition), so neither can corrupt the
// fresh session's resequencer. Probe frames sit entirely outside the
// reliability machinery: no sequence, no window, no dedup — they exist
// so the membership layer can exchange liveness evidence with a peer
// the data plane currently refuses to talk to.
//
// The layer wraps any network.Fabric (simulated or TCP) and is itself a
// network.Fabric, so the parcel port and runtime stack on top unchanged.
// Delivery handlers run under the receiving link's lock and must not
// call Send on the same fabric inline (the parcel port enqueues).
package reliable

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/trace"
)

const (
	frameMagic   = 0xD7
	kindData     = 1
	kindAck      = 2
	kindProbe    = 3
	trailerBytes = 26

	// sackBytes is the size of the SACK bitmap a standalone ACK carries
	// while the reorder buffer is non-empty: the 256 sequence numbers
	// after the cumulative ACK. Frames buffered beyond it go unreported
	// and are released by the cumulative ACK once the holes below fill.
	sackBytes = 32
	sackBits  = sackBytes * 8

	// dupThresh is how many later frames must be selectively
	// acknowledged before a hole counts as lost rather than reordered
	// (RFC 6675 DupThresh). SimFabric's FaultReorder displaces a frame by
	// one position, which stays below it.
	dupThresh = 3

	// minRing is the initial capacity of a link's tx window and reorder
	// buffer rings; both double on demand.
	minRing = 16

	// rtoBackoff multiplies a link's timeout after each expiry, up to
	// Config.RTOMax.
	rtoBackoff = 2
	// jitter spreads each deadline armed after a timeout uniformly over
	// [1-jitter/2, 1+jitter/2] x RTO, so synchronized losses do not
	// retransmit in lockstep.
	jitter = 0.2
)

// Config tunes the reliability protocol. The zero value selects defaults
// suited to the simulated fabric's default cost model.
type Config struct {
	// RTO is the retransmission timeout before a link has measured a
	// round trip, and the floor of the estimated timeout afterwards
	// (RTO = clamp(SRTT + 4·RTTVAR, RTO, RTOMax), RFC 6298). It should
	// exceed one round trip plus AckDelay (default 3ms).
	RTO time.Duration
	// RTOMax caps the estimated and the backed-off timeout (default
	// 100ms; never below RTO).
	RTOMax time.Duration
	// MaxRetries is the link's timeout budget: after MaxRetries
	// consecutive timer retransmissions of the oldest frame go
	// unacknowledged, the link is declared down, pending frames are
	// discarded, and subsequent Sends on the link return ErrLinkDown. The
	// link-down deadline is therefore roughly
	// sum_{i=0..MaxRetries} min(RTO*rtoBackoff^i, RTOMax) (default 8).
	MaxRetries int
	// AckDelay bounds how long an in-order frame waits for reverse
	// traffic to piggyback its ACK before a standalone ACK frame is sent
	// (default 500µs). Arrivals around a gap are acknowledged at once.
	AckDelay time.Duration
	// Tick is the granularity of the timer/ACK scanner goroutine
	// (default 250µs).
	Tick time.Duration
	// Window caps the receiver's out-of-order reorder buffer per link,
	// in frames past the last delivered one; frames beyond the window
	// are dropped and re-delivered by retransmission (default 4096).
	Window int
	// Seed seeds the jitter PRNG for reproducible chaos runs (default 1).
	Seed int64
	// Registry optionally receives the reliability counters
	// (/network/reliability/{retransmits,fast-retransmits,timeouts,
	// duplicates-suppressed,acks,sacks,link-down,link-down-remote,
	// stale-epoch} and, per link,
	// /network{locality#S/to#D}/reliability/{srtt-us,rto-us}); nil
	// disables registration (counters still function).
	Registry *counters.Registry
	// Trace optionally records KindRetransmit events for retransmissions
	// and KindLinkDown events for link-down declarations (at both the
	// sending and the receiving locality); nil disables.
	Trace *trace.Buffer
}

func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 3 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 100 * time.Millisecond
	}
	c.RTOMax = max(c.RTOMax, c.RTO) // the floor wins over the cap
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 500 * time.Microsecond
	}
	if c.Tick <= 0 {
		c.Tick = 250 * time.Microsecond
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// rttEstimator is RFC 6298's smoothed round-trip estimator. The zero
// value has no sample yet.
type rttEstimator struct {
	srtt, rttvar time.Duration
}

// observe folds one round-trip measurement in (RFC 6298 §2.2, §2.3).
func (e *rttEstimator) observe(r time.Duration) {
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
		return
	}
	e.rttvar += ((e.srtt - r).Abs() - e.rttvar) / 4
	e.srtt += (r - e.srtt) / 8
}

// rto is SRTT + 4·RTTVAR clamped to [lo, hi]; lo before the first sample.
func (e *rttEstimator) rto(lo, hi time.Duration) time.Duration {
	if e.srtt == 0 {
		return lo
	}
	return min(max(e.srtt+4*e.rttvar, lo), hi)
}

// txEntry is one unacknowledged data frame retained for retransmission.
// Its sequence number is its position in the window.
type txEntry struct {
	// payload is the sender's buffer, recycled once cumulatively
	// acknowledged; the frame's trailer lies past its length.
	payload []byte
	sentAt  int64 // last transmission, ns since Fabric.t0
	rexmit  bool  // transmitted more than once: its ACK times nothing (Karn)
	sacked  bool  // selectively acknowledged: never resent while the mark stands
	// busy marks a frame that Fabric.write is putting on the wire outside
	// the link lock. That writer alone may touch the trailer, nobody else
	// starts a second write, and whoever releases the entry meanwhile
	// leaves the buffer for the writer to recycle.
	busy bool
}

// release recycles the entry's buffer, unless a writer still holds it, and
// clears the entry.
func (e *txEntry) release() {
	if !e.busy {
		network.PutPayload(e.payload)
	}
	*e = txEntry{}
}

// txState is the sender side of one link. The window [una, next) lives in
// ring, a power-of-two ring indexed by sequence number.
type txState struct {
	src, dst int
	// deadline is when the link's retransmission timer expires, ns since
	// Fabric.t0, 0 while it is stopped. Written under mu; the scanner
	// reads it without the lock.
	deadline atomic.Int64

	mu    sync.Mutex
	next  uint64 // next sequence number to assign, starting at 1
	una   uint64 // oldest unacknowledged sequence number
	epoch uint32 // session epoch stamped on every data frame
	ring  []txEntry
	down  bool

	nSacked  int    // marked entries in the window
	hiSacked uint64 // highest marked sequence number (valid while nSacked > 0)
	// rackSent is the latest send time of any never-retransmitted frame
	// known to have arrived: a retransmission older than it was overtaken
	// on the wire, which is the evidence for resending it again.
	rackSent int64

	est      rttEstimator
	rto      time.Duration // current timeout, backoff included
	timeouts int           // consecutive expiries without a new cumulative ACK

	// Timeout recovery: the timer resends only the oldest frame. While
	// the cumulative ACKs that follow cover nothing but retransmissions,
	// the frames sent with it before the expiry (up to recover, before
	// recoverAt) count as lost too and are resent two for each one
	// acknowledged, as TCP's slow start after a timeout would. An ACK
	// covering a frame never resent means the originals are arriving —
	// the timeout was spurious, or the outage is over — and ends it.
	// recover == 0 outside recovery.
	recover   uint64
	recoverAt int64
}

func (ts *txState) entry(seq uint64) *txEntry {
	return &ts.ring[seq&uint64(len(ts.ring)-1)]
}

// push appends payload to the window, busy, and returns its sequence
// number.
func (ts *txState) push(payload []byte, now int64) uint64 {
	if int(ts.next-ts.una) == len(ts.ring) {
		ring := make([]txEntry, max(2*len(ts.ring), minRing))
		for s := ts.una; s != ts.next; s++ {
			ring[s&uint64(len(ring)-1)] = *ts.entry(s)
		}
		ts.ring = ring
	}
	seq := ts.next
	ts.next++
	*ts.entry(seq) = txEntry{payload: payload, sentAt: now, busy: true}
	return seq
}

// discard recycles every retained payload, empties the window and stops
// the timer: link down, FailPeer, ReopenPeer, Close.
func (ts *txState) discard() {
	for ; ts.una != ts.next; ts.una++ {
		ts.entry(ts.una).release()
	}
	ts.nSacked, ts.hiSacked, ts.rackSent = 0, 0, 0
	ts.timeouts, ts.recover = 0, 0
	ts.deadline.Store(0)
}

// clearSacks forgets every selective acknowledgement. A receiver may
// discard its reorder buffer (FailPeer, a session restart), so after a
// timeout the marks are no longer trusted (RFC 2018 §8).
func (ts *txState) clearSacks() {
	for s := ts.una; ts.nSacked > 0 && s <= ts.hiSacked; s++ {
		if e := ts.entry(s); e.sacked {
			e.sacked = false
			ts.nSacked--
		}
	}
	ts.hiSacked = 0
}

// arrived notes that e reached the receiver for the first time (by
// cumulative or selective ACK). Only a frame sent once times anything.
func (ts *txState) arrived(e *txEntry, now int64, sample *int64) {
	if e.rexmit {
		return
	}
	if *sample < 0 {
		*sample = now - e.sentAt
	}
	ts.rackSent = max(ts.rackSent, e.sentAt)
}

// rxState is the receiver side of one link. Out-of-order frames wait in
// buf, a power-of-two ring indexed by sequence number that holds frames
// in (delivered, delivered+len(buf)].
type rxState struct {
	src, dst int
	// ackDue is when the pending delayed ACK must go out, ns since
	// Fabric.t0, 0 while none is pending. Written under mu; the scanner
	// reads it without the lock.
	ackDue atomic.Int64

	mu        sync.Mutex
	epoch     uint32 // session epoch adopted from the sender
	delivered uint64 // highest in-order sequence delivered
	buf       [][]byte
	buffered  int
	hi        uint64 // highest buffered sequence number (valid while buffered > 0)
}

func (rs *rxState) slot(seq uint64) *[]byte {
	return &rs.buf[seq&uint64(len(rs.buf)-1)]
}

// reserve grows the ring until it spans off frames past delivered.
func (rs *rxState) reserve(off uint64) {
	n := max(len(rs.buf), minRing)
	for uint64(n) < off {
		n *= 2
	}
	if n == len(rs.buf) {
		return
	}
	buf := make([][]byte, n)
	for s := rs.delivered + 2; rs.buffered > 0 && s <= rs.hi; s++ {
		buf[s&uint64(n-1)] = *rs.slot(s)
	}
	rs.buf = buf
}

// clearReorder recycles every buffered frame and cancels the pending ACK.
func (rs *rxState) clearReorder() {
	for s := rs.delivered + 2; rs.buffered > 0 && s <= rs.hi; s++ {
		if p := rs.slot(s); *p != nil {
			network.PutPayload(*p)
			*p = nil
			rs.buffered--
		}
	}
	rs.ackDue.Store(0)
}

// Fabric is a reliable-delivery layer over an inner network.Fabric. It
// implements network.Fabric itself; Close closes the inner fabric.
type Fabric struct {
	inner  network.Fabric
	borrow borrowSender // inner, when it can send without taking ownership
	cfg    Config
	n      int
	t0     time.Time // origin of every int64 time in this package
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// tx and rx hold the per-link state, created on first use, at
	// [src*n+dst]. mu guards creation and the append-only lists of
	// created links that the scanner and the whole-fabric operations
	// walk (a slice header read under mu stays valid outside it).
	tx      []atomic.Pointer[txState]
	rx      []atomic.Pointer[rxState]
	mu      sync.Mutex
	txLinks []*txState
	rxLinks []*rxState

	handlers      []atomic.Pointer[network.Handler]
	probeHandlers []atomic.Pointer[func(src int, payload []byte)]

	// baseEpoch seeds each new link's session epoch. It is derived from
	// wall-clock milliseconds so a crash-restarted process starts its
	// links at a higher epoch than any pre-crash frames still in flight.
	baseEpoch uint32

	rngMu sync.Mutex
	rng   *rand.Rand

	// downPeers marks localities declared dead by the failure detector
	// (FailPeer): every Send touching one fails fast with
	// network.ErrLocalityDown instead of burning a retry budget.
	downPeers []atomic.Bool

	// The reliability counters of the introspection stack.
	retransmits   *counters.Raw // /network/reliability/retransmits
	fastRetrans   *counters.Raw // /network/reliability/fast-retransmits
	timeouts      *counters.Raw // /network/reliability/timeouts
	dupSuppressed *counters.Raw // /network/reliability/duplicates-suppressed
	acks          *counters.Raw // /network/reliability/acks
	sacks         *counters.Raw // /network/reliability/sacks
	linkDowns     *counters.Raw // /network/reliability/link-down
	linkDownsRem  *counters.Raw // /network/reliability/link-down-remote
	staleEpochs   *counters.Raw // /network/reliability/stale-epoch
}

// borrowSender is implemented by the socket fabric: SendBorrowed reads
// frame only until it returns and leaves the buffer with the caller, so
// the window's own buffer goes on the wire uncopied.
type borrowSender interface {
	SendBorrowed(src, dst int, frame []byte) error
}

// New wraps inner in a reliability layer. The returned fabric owns inner:
// closing it closes inner.
func New(inner network.Fabric, cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	mk := func(name string) *counters.Raw {
		c := counters.NewRaw(counters.Path{Object: "network", Name: "reliability/" + name})
		if cfg.Registry != nil {
			cfg.Registry.MustRegister(c)
		}
		return c
	}
	n := inner.Localities()
	borrow, _ := inner.(borrowSender)
	f := &Fabric{
		inner:         inner,
		borrow:        borrow,
		cfg:           cfg,
		n:             n,
		t0:            time.Now(),
		stop:          make(chan struct{}),
		tx:            make([]atomic.Pointer[txState], n*n),
		rx:            make([]atomic.Pointer[rxState], n*n),
		handlers:      make([]atomic.Pointer[network.Handler], n),
		probeHandlers: make([]atomic.Pointer[func(src int, payload []byte)], n),
		baseEpoch:     uint32(time.Now().UnixMilli()),
		downPeers:     make([]atomic.Bool, n),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		retransmits:   mk("retransmits"),
		fastRetrans:   mk("fast-retransmits"),
		timeouts:      mk("timeouts"),
		dupSuppressed: mk("duplicates-suppressed"),
		acks:          mk("acks"),
		sacks:         mk("sacks"),
		linkDowns:     mk("link-down"),
		linkDownsRem:  mk("link-down-remote"),
		staleEpochs:   mk("stale-epoch"),
	}
	if f.baseEpoch == 0 {
		f.baseEpoch = 1 // epoch 0 means "no session yet" on the rx side
	}
	f.wg.Add(1)
	go f.run()
	return f
}

// now is the package's clock: monotonic nanoseconds since New.
func (f *Fabric) now() int64 { return int64(time.Since(f.t0)) }

// Localities implements network.Fabric.
func (f *Fabric) Localities() int { return f.n }

// Model implements network.Fabric, exposing the inner fabric's cost model
// so receive-side CPU accounting is unchanged.
func (f *Fabric) Model() network.CostModel { return f.inner.Model() }

// Stats implements network.Fabric, reporting the inner fabric's wire
// statistics (which include retransmissions and ACK frames — the traffic
// reliability costs). Protocol-level counts are in ReliabilityStats.
func (f *Fabric) Stats() network.Stats { return f.inner.Stats() }

// LinkStats is the retransmission-timer state of one directed link.
type LinkStats struct {
	Src, Dst int
	// SRTT is the smoothed round trip (send to acknowledgement, so the
	// receiver's ACK delay is part of it); 0 before the first sample.
	SRTT time.Duration
	// RTO is the current retransmission timeout, backoff included.
	RTO time.Duration
}

// ReliabilityStats is a snapshot of the protocol counters.
type ReliabilityStats struct {
	// Retransmits counts data-frame retransmissions of every cause.
	Retransmits int64
	// FastRetransmits counts the retransmissions triggered by selective
	// acknowledgements (a hole with dupThresh later frames received).
	FastRetransmits int64
	// Timeouts counts retransmission-timer expiries, each of which
	// resent one link's oldest frame. Retransmits beyond FastRetransmits
	// + Timeouts are the frames behind it resent during timeout recovery.
	Timeouts int64
	// DuplicatesSuppressed counts received data frames discarded by the
	// dedup window (already-delivered or already-buffered sequences).
	DuplicatesSuppressed int64
	// AcksSent counts standalone ACK frames transmitted (piggybacked
	// ACKs ride on data frames and are not counted separately).
	AcksSent int64
	// SacksSent counts the standalone ACKs among AcksSent that carried a
	// SACK bitmap.
	SacksSent int64
	// LinkDowns counts links declared down after an exhausted retry
	// budget, observed at the sender.
	LinkDowns int64
	// LinkDownsRemote counts the same declarations surfaced at the
	// receiving locality, so an asymmetric partition (src hears dst, dst
	// never hears src) is visible from both ends of the link.
	LinkDownsRemote int64
	// StaleEpochs counts frames discarded for naming an old session
	// epoch: pre-partition retransmits and stale ACKs arriving after
	// ReopenPeer restarted the link.
	StaleEpochs int64
	// Links is the timer state of every link that has sent a frame.
	Links []LinkStats
}

// ReliabilityStats returns a snapshot of the protocol counters.
func (f *Fabric) ReliabilityStats() ReliabilityStats {
	st := ReliabilityStats{
		Retransmits:          f.retransmits.Get(),
		FastRetransmits:      f.fastRetrans.Get(),
		Timeouts:             f.timeouts.Get(),
		DuplicatesSuppressed: f.dupSuppressed.Get(),
		AcksSent:             f.acks.Get(),
		SacksSent:            f.sacks.Get(),
		LinkDowns:            f.linkDowns.Get(),
		LinkDownsRemote:      f.linkDownsRem.Get(),
		StaleEpochs:          f.staleEpochs.Get(),
	}
	txs, _ := f.links()
	for _, ts := range txs {
		ts.mu.Lock()
		st.Links = append(st.Links, LinkStats{Src: ts.src, Dst: ts.dst, SRTT: ts.est.srtt, RTO: ts.rto})
		ts.mu.Unlock()
	}
	return st
}

// links returns the links created so far.
func (f *Fabric) links() ([]*txState, []*rxState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.txLinks, f.rxLinks
}

// resetPeer discards the windows and reorder buffers of every link
// touching peer; withTx is applied to each such sender state under its
// lock.
func (f *Fabric) resetPeer(peer int, withTx func(*txState)) {
	txs, rxs := f.links()
	for _, ts := range txs {
		if ts.src == peer || ts.dst == peer {
			ts.mu.Lock()
			ts.discard()
			withTx(ts)
			ts.mu.Unlock()
		}
	}
	for _, rs := range rxs {
		if rs.src == peer || rs.dst == peer {
			rs.mu.Lock()
			rs.clearReorder()
			rs.mu.Unlock()
		}
	}
}

// FailPeer marks a locality as dead: every link touching it is declared
// down immediately, pending retransmission windows and reorder buffers
// to/from it are discarded (the coalescing layer above flushes its own
// queues), and subsequent Sends fail fast with network.ErrLocalityDown.
// The failure detector calls this on suspicion so in-flight traffic stops
// burning retry budgets against a peer that will never ACK. FailPeer is
// idempotent.
func (f *Fabric) FailPeer(peer int) {
	if peer < 0 || peer >= len(f.downPeers) || f.downPeers[peer].Swap(true) {
		return
	}
	f.resetPeer(peer, func(ts *txState) { ts.down = true })
	f.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "peer-down",
		Locality: peer, Start: time.Now(),
	})
}

// ReopenPeer reverses FailPeer for a locality that has rejoined the
// cluster. Every link touching the peer is un-declared: the sender side
// restarts with a fresh session epoch and sequence 1, so the rejoined
// receiver's dedup window cannot mistake the new stream's first frames
// for pre-partition duplicates; the receiver side discards its reorder
// buffer but keeps its delivered/epoch watermark — the first data frame
// of the peer's new epoch resets it lazily (see onFrame), which also
// covers the remote restarting without us noticing. The round-trip
// estimate survives (it is the same path). Idempotent; a no-op for peers
// that were never failed.
func (f *Fabric) ReopenPeer(peer int) {
	if peer < 0 || peer >= len(f.downPeers) || !f.downPeers[peer].Swap(false) {
		return
	}
	now32 := uint32(time.Now().UnixMilli())
	f.resetPeer(peer, func(ts *txState) {
		ts.down = false
		ts.next, ts.una = 1, 1
		ts.epoch = max(now32, ts.epoch+1)
		ts.rto = ts.est.rto(f.cfg.RTO, f.cfg.RTOMax)
	})
	f.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "peer-up",
		Locality: peer, Start: time.Now(),
	})
}

// PeerDown reports whether FailPeer has been called for the locality.
func (f *Fabric) PeerDown(peer int) bool {
	return peer >= 0 && peer < len(f.downPeers) && f.downPeers[peer].Load()
}

// LinkDown reports whether the src->dst link has been declared down.
func (f *Fabric) LinkDown(src, dst int) bool {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return false
	}
	ts := f.tx[src*f.n+dst].Load()
	if ts == nil {
		return false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.down
}

// Pending returns the total number of unacknowledged data frames across
// all links (in-flight plus awaiting retransmission).
func (f *Fabric) Pending() int {
	txs, _ := f.links()
	n := 0
	for _, ts := range txs {
		ts.mu.Lock()
		n += int(ts.next - ts.una)
		ts.mu.Unlock()
	}
	return n
}

// SetHandler implements network.Fabric: it records the delivery callback
// for dst and interposes the protocol's frame processor on the inner
// fabric.
func (f *Fabric) SetHandler(dst int, h network.Handler) {
	f.handlers[dst].Store(&h)
	f.inner.SetHandler(dst, func(src int, frame []byte) {
		f.onFrame(src, dst, frame)
	})
}

// SendProbe transmits an unreliable, out-of-band probe frame from src
// to dst, bypassing the down-peer gate, the retransmission window and
// the receiver's dedup state entirely. The membership layer uses probes
// for SWIM ping-req relays and for rejoin solicitation across a healed
// partition — exactly the moments the data plane still considers the
// peer dead. The payload is copied into the frame; the caller retains
// ownership. Delivery is best-effort: a lost probe is re-sent by the
// caller's own cadence, not by this layer.
func (f *Fabric) SendProbe(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return network.ErrClosed
	}
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", network.ErrBadLocality, src, dst, f.n)
	}
	return f.inner.Send(src, dst, encodeFrame(kindProbe, 0, 0, 0, 0, payload))
}

// SetProbeHandler installs the probe delivery callback for dst (nil
// removes it). The handler owns the pooled buffer it receives — the one
// the frame arrived in — and must eventually release it via
// network.PutPayload (directly or through a decoder that takes
// ownership).
func (f *Fabric) SetProbeHandler(dst int, h func(src int, payload []byte)) {
	if dst < 0 || dst >= len(f.probeHandlers) {
		return
	}
	if h == nil {
		f.probeHandlers[dst].Store(nil)
		return
	}
	f.probeHandlers[dst].Store(&h)
}

func (f *Fabric) txFor(src, dst int) *txState {
	p := &f.tx[src*f.n+dst]
	if ts := p.Load(); ts != nil {
		return ts
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ts := p.Load(); ts != nil {
		return ts
	}
	ts := &txState{src: src, dst: dst, next: 1, una: 1, epoch: f.baseEpoch, rto: f.cfg.RTO}
	if reg := f.cfg.Registry; reg != nil {
		gauge := func(name string, read func() time.Duration) {
			reg.MustRegister(counters.NewDerived(counters.Path{
				Object:   "network",
				Instance: fmt.Sprintf("locality#%d/to#%d", src, dst),
				Name:     "reliability/" + name,
			}, func() float64 {
				ts.mu.Lock()
				defer ts.mu.Unlock()
				return float64(read() / time.Microsecond)
			}))
		}
		gauge("srtt-us", func() time.Duration { return ts.est.srtt })
		gauge("rto-us", func() time.Duration { return ts.rto })
	}
	p.Store(ts)
	f.txLinks = append(f.txLinks, ts)
	return ts
}

func (f *Fabric) rxFor(src, dst int) *rxState {
	p := &f.rx[src*f.n+dst]
	if rs := p.Load(); rs != nil {
		return rs
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if rs := p.Load(); rs != nil {
		return rs
	}
	rs := &rxState{src: src, dst: dst}
	p.Store(rs)
	f.rxLinks = append(f.rxLinks, rs)
	return rs
}

// cumAck returns the cumulative ACK to piggyback on a frame from local
// to remote — the highest in-order sequence local has delivered on the
// reverse (remote->local) link — together with the session epoch that
// sequence belongs to, so the remote can discard the ACK if it has
// since restarted the link. Piggybacking also cancels any pending
// standalone ACK for that link.
func (f *Fabric) cumAck(local, remote int) (uint64, uint32) {
	rs := f.rx[remote*f.n+local].Load()
	if rs == nil {
		return 0, 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ackDue.Store(0)
	return rs.delivered, rs.epoch
}

// trailer is a frame's decoded protocol fields.
type trailer struct {
	kind            byte
	seq, ack        uint64
	epoch, ackEpoch uint32
}

// parseFrame splits frame into its payload — frame minus the trailer,
// with the buffer's base and capacity — and its protocol fields; ok is
// false for anything too short to end in a trailer or lacking the magic.
func parseFrame(frame []byte) (payload []byte, t trailer, ok bool) {
	n := len(frame) - trailerBytes
	if n < 0 || frame[n] != frameMagic {
		return nil, trailer{}, false
	}
	b := frame[n:]
	return frame[:n], trailer{
		kind:     b[1],
		seq:      binary.LittleEndian.Uint64(b[2:10]),
		ack:      binary.LittleEndian.Uint64(b[10:18]),
		epoch:    binary.LittleEndian.Uint32(b[18:22]),
		ackEpoch: binary.LittleEndian.Uint32(b[22:26]),
	}, true
}

// putTrailer writes the trailer that ends frame.
func putTrailer(frame []byte, kind byte, seq, ack uint64, epoch, ackEpoch uint32) {
	b := frame[len(frame)-trailerBytes:]
	b[0] = frameMagic
	b[1] = kind
	binary.LittleEndian.PutUint64(b[2:10], seq)
	binary.LittleEndian.PutUint32(b[18:22], epoch)
	putAck(frame, ack, ackEpoch)
}

// putAck rewrites the cumulative ACK in frame's trailer.
func putAck(frame []byte, ack uint64, ackEpoch uint32) {
	b := frame[len(frame)-trailerBytes:]
	binary.LittleEndian.PutUint64(b[10:18], ack)
	binary.LittleEndian.PutUint32(b[22:26], ackEpoch)
}

// The port leaves network.FrameSlack spare bytes behind what it encodes;
// the trailer must fit in them.
const _ = uint(network.FrameSlack - trailerBytes)

// frameFor returns payload extended by room for the trailer: in place
// when the buffer has the spare capacity, which is every payload the port
// encodes, otherwise in a larger buffer that replaces it.
func frameFor(payload []byte) []byte {
	n := len(payload)
	if cap(payload)-n >= trailerBytes {
		return payload[:n+trailerBytes]
	}
	frame := network.GetPayload(n + trailerBytes)
	copy(frame, payload)
	network.PutPayload(payload)
	return frame
}

// encodeFrame builds an ACK or probe frame in a pooled buffer. payload
// may be nil (plain ACK frames).
func encodeFrame(kind byte, seq, ack uint64, epoch, ackEpoch uint32, payload []byte) []byte {
	frame := network.GetPayload(len(payload) + trailerBytes)
	copy(frame, payload)
	putTrailer(frame, kind, seq, ack, epoch, ackEpoch)
	return frame
}

// jittered spreads d uniformly over [1-jitter/2, 1+jitter/2] x d.
func (f *Fabric) jittered(d time.Duration) time.Duration {
	f.rngMu.Lock()
	r := f.rng.Float64()
	f.rngMu.Unlock()
	scale := 1 - jitter/2 + jitter*r
	return time.Duration(float64(d) * scale)
}

// Send implements network.Fabric. The payload is assigned the link's next
// sequence number, framed where it lies, retained for retransmission, and
// written to the inner fabric from that same buffer. Send returns nil
// once the frame is committed to the retransmission window — delivery is
// then guaranteed unless the link's retry budget is exhausted, in which
// case this and subsequent Sends return ErrLinkDown (wrapping
// network.ErrLinkDown). On error the caller retains payload ownership,
// per the Fabric contract.
func (f *Fabric) Send(src, dst int, payload []byte) error {
	if f.closed.Load() {
		return network.ErrClosed
	}
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", network.ErrBadLocality, src, dst, f.n)
	}
	if f.downPeers[dst].Load() {
		return fmt.Errorf("%w: locality %d", network.ErrLocalityDown, dst)
	}
	if f.downPeers[src].Load() {
		return fmt.Errorf("%w: locality %d", network.ErrLocalityDown, src)
	}
	ts := f.txFor(src, dst)
	// Read the piggyback ack before taking the link lock: cumAck locks
	// the reverse-direction rx state, and the two are never nested. A
	// slightly stale cumulative ack is a no-op at the receiver.
	ack, ackEpoch := f.cumAck(src, dst)
	now := f.now()
	ts.mu.Lock()
	if ts.down {
		ts.mu.Unlock()
		return fmt.Errorf("%w: %d->%d retry budget exhausted", network.ErrLinkDown, src, dst)
	}
	frame := frameFor(payload)
	seq := ts.push(frame[:len(frame)-trailerBytes], now)
	if ts.deadline.Load() == 0 {
		ts.deadline.Store(now + int64(ts.rto)) // RFC 6298 §5.1
	}
	putTrailer(frame, kindData, seq, ack, ts.epoch, ackEpoch)
	ts.mu.Unlock()
	f.write(ts, frame)
	return nil
}

// write puts a data frame on the wire, outside the link lock, and then
// gives up the busy mark its window entry was handed over with. An ACK,
// FailPeer, ReopenPeer, retry-budget exhaustion or Close may release the
// entry while the write is in flight; they leave a busy entry's buffer
// alone, and the writer, finding its entry gone, recycles it.
//
// An inner-fabric send error (e.g. a TCP connection reset) is a transient
// loss: the frame stays in the window and is retransmitted like any other
// lost frame.
func (f *Fabric) write(ts *txState, frame []byte) {
	if f.borrow != nil {
		_ = f.borrow.SendBorrowed(ts.src, ts.dst, frame)
	} else {
		// The inner fabric takes ownership of what it is sent (SimFabric
		// hands that very buffer to the receiver), so it gets a copy: for
		// an in-process fabric this copy is the wire.
		wire := network.GetPayload(len(frame))
		copy(wire, frame)
		if f.inner.Send(ts.src, ts.dst, wire) != nil {
			network.PutPayload(wire)
		}
	}
	_, t, _ := parseFrame(frame)
	ts.mu.Lock()
	if t.epoch == ts.epoch && t.seq >= ts.una {
		ts.entry(t.seq).busy = false
	} else {
		network.PutPayload(frame)
	}
	ts.mu.Unlock()
}

// onFrame processes one frame arriving at locality dst from locality src,
// on the inner fabric's delivery goroutine. It owns frame, and passes the
// buffer on — minus the trailer — wherever the payload is kept: to the
// delivery or probe handler, or into the reorder buffer.
func (f *Fabric) onFrame(src, dst int, frame []byte) {
	payload, t, ok := parseFrame(frame)
	if f.closed.Load() || !ok || src < 0 || src >= f.n {
		network.PutPayload(frame)
		return
	}
	switch t.kind {
	case kindProbe:
		// Probe frames bypass the reliability machinery entirely: no ACK
		// processing, no dedup, no reorder — straight to the probe
		// handler, which owns the buffer it receives.
		if php := f.probeHandlers[dst].Load(); php != nil {
			(*php)(src, payload)
			return
		}
	case kindAck:
		f.handleAck(dst, src, t.ack, t.ackEpoch, payload)
	case kindData:
		// The piggybacked ACK acknowledges data this locality sent to src.
		f.handleAck(dst, src, t.ack, t.ackEpoch, nil)
		kept, ackNow, sack := f.receive(src, dst, t.seq, t.epoch, payload)
		if ackNow != nil {
			f.sendAck(dst, src, ackNow, sack)
		}
		if kept {
			return
		}
	}
	network.PutPayload(frame)
}

// receive runs one data frame through the link's resequencer. kept
// reports that the payload's buffer went to the handler or into the
// reorder buffer; otherwise it is still the caller's. receive also
// returns a standalone ACK frame (and whether it carries a SACK bitmap)
// when the sender should hear about this arrival at once: the frame that
// fills a gap, and any arrival while frames wait behind one.
func (f *Fabric) receive(src, dst int, seq uint64, epoch uint32, payload []byte) (kept bool, ackNow []byte, sack bool) {
	rs := f.rxFor(src, dst)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if epoch != rs.epoch {
		if epoch < rs.epoch {
			// A pre-partition retransmit from a session the sender has
			// since abandoned: dropping it (rather than deduping or
			// delivering) is the whole point of the epoch field.
			f.staleEpochs.Inc()
			return false, nil, false
		}
		// A newer epoch: the sender restarted this link (ReopenPeer
		// after a healed partition, or a process restart). Reset the
		// resequencer so the new session's seq 1 delivers instead of
		// being suppressed as a duplicate of the old stream.
		rs.clearReorder()
		rs.delivered = 0
		rs.epoch = epoch
	}
	filled := false
	switch off := seq - rs.delivered; {
	case seq <= rs.delivered:
		// Already delivered: a retransmission racing a lost ACK (or an
		// injected duplicate).
		f.dupSuppressed.Inc()
	case off == 1:
		filled = rs.buffered > 0
		f.deliverLocked(rs, payload)
		kept = true
	case off > uint64(f.cfg.Window):
		// Beyond the window: dropped, redelivered by retransmission.
	default:
		rs.reserve(off)
		if p := rs.slot(seq); *p != nil {
			f.dupSuppressed.Inc()
		} else {
			*p = payload
			kept = true
			if rs.buffered == 0 || seq > rs.hi {
				rs.hi = seq
			}
			rs.buffered++
		}
	}
	if rs.buffered == 0 && !filled {
		// Nothing is missing: wait for reverse traffic to carry the ACK.
		if rs.ackDue.Load() == 0 {
			rs.ackDue.Store(f.now() + int64(f.cfg.AckDelay))
		}
		return kept, nil, false
	}
	ackNow, sack = f.ackFrameLocked(rs)
	return kept, ackNow, sack
}

// deliverLocked hands the in-order payload to the installed handler and
// drains any now-consecutive frames from the reorder buffer. Called with
// rs.mu held, which serializes per-link delivery and preserves order. The
// handler assumes ownership of the buffers themselves: nothing below
// holds a reference to a frame once it has arrived, so the parcels the
// port decodes may borrow from it until the bundle's last Release.
func (f *Fabric) deliverLocked(rs *rxState, payload []byte) {
	hp := f.handlers[rs.dst].Load()
	emit := func(b []byte) {
		if hp != nil {
			(*hp)(rs.src, b)
		} else {
			network.PutPayload(b)
		}
	}
	emit(payload)
	rs.delivered++
	for rs.buffered > 0 {
		p := rs.slot(rs.delivered + 1)
		if *p == nil {
			return
		}
		b := *p
		*p = nil
		rs.buffered--
		emit(b)
		rs.delivered++
	}
}

// ackFrameLocked builds the standalone ACK for rs's current state — with
// the SACK bitmap while frames wait in the reorder buffer — and cancels
// the pending delayed ACK, which it supersedes.
func (f *Fabric) ackFrameLocked(rs *rxState) (frame []byte, sack bool) {
	rs.ackDue.Store(0)
	if rs.buffered == 0 {
		return encodeFrame(kindAck, 0, rs.delivered, 0, rs.epoch, nil), false
	}
	frame = network.GetPayload(sackBytes + trailerBytes)
	putTrailer(frame, kindAck, 0, rs.delivered, 0, rs.epoch)
	bitmap := frame[:sackBytes]
	clear(bitmap)
	for s := rs.delivered + 2; s <= min(rs.hi, rs.delivered+sackBits); s++ {
		if *rs.slot(s) != nil {
			bit := s - rs.delivered - 1
			bitmap[bit/8] |= 1 << (bit % 8)
		}
	}
	return frame, true
}

// sendAck transmits a standalone ACK from local to remote.
func (f *Fabric) sendAck(local, remote int, frame []byte, sack bool) {
	_ = f.inner.Send(local, remote, frame)
	f.acks.Inc()
	if sack {
		f.sacks.Inc()
	}
}

// handleAck applies an acknowledgement (piggybacked or standalone, with
// or without a SACK bitmap) to the local->remote window, provided it
// names the window's current session epoch — an ACK from a pre-partition
// session must not release frames of the fresh one — and a frame this
// session has sent.
func (f *Fabric) handleAck(local, remote int, ack uint64, ackEpoch uint32, sack []byte) {
	if ack == 0 && len(sack) == 0 {
		return
	}
	ts := f.tx[local*f.n+remote].Load()
	if ts == nil {
		return
	}
	var resend [][]byte
	ts.mu.Lock()
	switch {
	case ackEpoch != ts.epoch:
		f.staleEpochs.Inc()
	case ack >= ts.next:
		// Acknowledges a frame never sent: garbage.
	case ack < ts.una && len(sack) == 0:
		// Nothing new: most piggybacked ACKs on a busy reverse link.
	default:
		resend = f.ackLocked(ts, f.now(), ack, sack)
	}
	ts.mu.Unlock()
	f.transmit(ts, resend)
}

// ackLocked releases what ack covers, marks what sack reports, feeds the
// round-trip estimator, restarts or stops the timer, and returns the
// frames that the acknowledgement shows to be lost, marked busy for
// transmit. Called with ts.mu held.
func (f *Fabric) ackLocked(ts *txState, now int64, ack uint64, sack []byte) (resend [][]byte) {
	sample := int64(-1)
	first := ts.una
	originals := false // a frame sent only once is among those released
	for ; ts.una <= ack; ts.una++ {
		e := ts.entry(ts.una)
		if e.sacked {
			ts.nSacked--
		} else {
			ts.arrived(e, now, &sample)
		}
		originals = originals || !e.rexmit
		e.release()
	}

	sack = sack[:min(len(sack), sackBytes)]
marks:
	for i, b := range sack {
		if i == 0 {
			b &^= 1 // frame ack+1 is what the receiver is missing
		}
		for ; b != 0; b &= b - 1 {
			seq := ack + 1 + uint64(i*8+bits.TrailingZeros8(b))
			if seq >= ts.next {
				break marks
			}
			if seq < ts.una {
				continue // an old ACK, overtaken by a newer one
			}
			if e := ts.entry(seq); !e.sacked {
				e.sacked = true
				ts.nSacked++
				if ts.nSacked == 1 || seq > ts.hiSacked {
					ts.hiSacked = seq
				}
				ts.arrived(e, now, &sample)
			}
		}
	}

	if sample >= 0 {
		// A fresh measurement also ends any backoff (Karn).
		ts.est.observe(time.Duration(sample))
		ts.rto = ts.est.rto(f.cfg.RTO, f.cfg.RTOMax)
	}
	if released := ts.una - first; released > 0 {
		ts.timeouts = 0
		if ts.una == ts.next {
			ts.deadline.Store(0)
		} else {
			ts.deadline.Store(now + int64(ts.rto)) // RFC 6298 §5.3
		}
		if originals || ts.una > ts.recover {
			ts.recover = 0
		}
		for s, n := ts.una, 2*released; n > 0 && s <= ts.recover; s++ {
			if e := ts.entry(s); !e.sacked && e.sentAt < ts.recoverAt {
				if frame := f.resendLocked(ts, s, now, "retransmit"); frame != nil {
					resend = append(resend, frame)
				}
				n--
			}
		}
	}

	// Loss detection: an unmarked frame with dupThresh marked frames
	// above it is a hole, not a reordering. It is resent once on that
	// evidence; again only when a frame sent after the retransmission
	// has arrived while it has not, and a smoothed round trip has passed.
	if len(sack) > 0 {
		gate := int64(ts.est.srtt)
		if gate == 0 {
			gate = int64(ts.rto)
		}
		above := ts.nSacked
		for s := ts.una; above >= dupThresh && s < ts.hiSacked; s++ {
			e := ts.entry(s)
			if e.sacked {
				above--
				continue
			}
			if e.rexmit && (ts.rackSent <= e.sentAt || now-e.sentAt < gate) {
				continue
			}
			if frame := f.resendLocked(ts, s, now, "fast-retransmit"); frame != nil {
				f.fastRetrans.Inc()
				resend = append(resend, frame)
			}
		}
	}
	return resend
}

// resendLocked stamps entry seq as retransmitted now and returns its
// frame, busy, for transmit to send outside the link lock. It returns nil
// for a frame a writer already holds: a transmission that has not
// finished has not been lost.
func (f *Fabric) resendLocked(ts *txState, seq uint64, now int64, why string) []byte {
	e := ts.entry(seq)
	if e.busy {
		return nil
	}
	e.busy = true
	e.rexmit = true
	e.sentAt = now
	f.retransmits.Inc()
	f.cfg.Trace.Record(trace.Event{
		Kind: trace.KindRetransmit, Name: why,
		Locality: ts.src, Start: f.t0.Add(time.Duration(now)), Arg: int64(seq),
	})
	return e.payload[:len(e.payload)+trailerBytes]
}

// transmit sends the frames resendLocked returned, each carrying the
// current cumulative ACK of the reverse link as an original transmission
// would — the only bytes in which a retransmission differs from it.
func (f *Fabric) transmit(ts *txState, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	ack, ackEpoch := f.cumAck(ts.src, ts.dst)
	for _, frame := range frames {
		putAck(frame, ack, ackEpoch)
		f.write(ts, frame)
	}
}

// run is the scanner goroutine: every Tick it serves the retransmission
// timers that expired (declaring links down when the retry budget runs
// out) and sends the delayed ACKs that came due.
func (f *Fabric) run() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case t := <-ticker.C:
			f.sweep(int64(t.Sub(f.t0)))
		}
	}
}

// sweep serves what was due at tick, the time the ticker fired — not the
// time the scanner got to run. A scanner that is scheduled late on a
// loaded host therefore sends no more standalone ACKs than its ticks
// allow (judging by the clock instead was measured at +20 % ACK frames on
// the lossless stream workloads).
func (f *Fabric) sweep(tick int64) {
	txs, rxs := f.links()
	for _, ts := range txs {
		if d := ts.deadline.Load(); d != 0 && tick >= d {
			f.expire(ts, tick)
		}
	}
	for _, rs := range rxs {
		if d := rs.ackDue.Load(); d == 0 || tick < d {
			continue
		}
		rs.mu.Lock()
		var frame []byte
		var sack bool
		if rs.ackDue.Load() != 0 { // not piggybacked meanwhile
			frame, sack = f.ackFrameLocked(rs)
		}
		rs.mu.Unlock()
		if frame != nil {
			// The rx link is (remote src -> local dst); the ACK travels
			// the reverse link.
			f.sendAck(rs.dst, rs.src, frame, sack)
		}
	}
}

// expire serves ts's retransmission timer (RFC 6298 §5.4-5.6): resend the
// oldest unacknowledged frame only, back the timeout off, restart the
// timer — or, with the budget of consecutive timeouts spent, declare the
// link down.
func (f *Fabric) expire(ts *txState, tick int64) {
	ts.mu.Lock()
	if d := ts.deadline.Load(); d == 0 || tick < d || ts.down {
		ts.mu.Unlock()
		return
	}
	now := f.now()
	if ts.timeouts >= f.cfg.MaxRetries {
		// Retry budget exhausted: declare the link down and discard
		// the window — senders see ErrLinkDown instead of hanging.
		ts.down = true
		ts.discard()
		ts.mu.Unlock()
		at := f.t0.Add(time.Duration(now))
		f.linkDowns.Inc()
		f.cfg.Trace.Record(trace.Event{
			Kind: trace.KindLinkDown, Name: "link-down",
			Locality: ts.src, Start: at, Arg: int64(ts.dst),
		})
		// Surface the declaration at the receiving locality too: in a
		// real deployment dst's reliability layer reaches the same
		// verdict from its own silence; in-process the shared fabric
		// records both ends so asymmetric partitions are observable
		// from either side.
		f.linkDownsRem.Inc()
		f.cfg.Trace.Record(trace.Event{
			Kind: trace.KindLinkDown, Name: "link-down-remote",
			Locality: ts.dst, Start: at, Arg: int64(ts.src),
		})
		return
	}
	ts.timeouts++
	f.timeouts.Inc()
	ts.clearSacks()
	ts.recover, ts.recoverAt = ts.next-1, now
	frame := f.resendLocked(ts, ts.una, now, "retransmit")
	ts.rto = min(rtoBackoff*ts.rto, f.cfg.RTOMax)
	// The next deadline counts from the tick that served this one, like
	// the dueness test in sweep: a tick's timestamp is when it was due to
	// fire, and on a host that serves timers late a deadline counted from
	// the clock would wait one tick more at every step.
	ts.deadline.Store(tick + int64(f.jittered(ts.rto)))
	ts.mu.Unlock()
	if frame != nil {
		f.transmit(ts, [][]byte{frame})
	}
}

// Close implements network.Fabric: it stops the scanner, closes the inner
// fabric, and recycles every retained buffer. In-flight messages may or
// may not have been delivered.
func (f *Fabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	err := f.inner.Close()
	txs, rxs := f.links()
	for _, ts := range txs {
		ts.mu.Lock()
		ts.discard()
		ts.mu.Unlock()
	}
	for _, rs := range rxs {
		rs.mu.Lock()
		rs.clearReorder()
		rs.mu.Unlock()
	}
	return err
}
