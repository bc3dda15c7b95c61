package reliable

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/network"
)

// The loss-recovery suite: every test scripts exactly which frames the
// wire loses, so the retransmission counts it asserts are exact.

// wireScript is a scripted fault hook for the 0->1 data link and the ACKs
// that answer it. nth counts transmissions of one sequence number (1 is
// the original).
type wireScript struct {
	mu       sync.Mutex
	sent     map[uint64]int
	resent   bool // some data frame has been transmitted twice
	piggy    bool // a retransmission carried a non-zero cumulative ACK
	dropData func(seq uint64, nth int) bool
	dropAck  func(w *wireScript) bool
	reorder  func(seq uint64, nth int) bool

	// gate holds every delivery back until open is called, so that a
	// burst is on the wire whole before its first frame arrives: which
	// frames were "sent later" than a retransmission is then scripted too.
	gate chan struct{}
}

func (w *wireScript) open() { close(w.gate) }

// gatedFabric delays every delivery until gate is closed.
type gatedFabric struct {
	network.Fabric
	gate chan struct{}
}

func (g gatedFabric) SetHandler(dst int, h network.Handler) {
	g.Fabric.SetHandler(dst, func(src int, p []byte) {
		<-g.gate
		h(src, p)
	})
}

func (w *wireScript) hook(src, dst int, frame []byte) network.Fault {
	_, t, ok := parseFrame(frame)
	if !ok {
		return network.Fault{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch t.kind {
	case kindAck:
		if w.dropAck != nil && w.dropAck(w) {
			return network.Fault{Action: network.FaultDrop}
		}
	case kindData:
		if src != 0 {
			break
		}
		seq := t.seq
		if w.sent == nil {
			w.sent = map[uint64]int{}
		}
		w.sent[seq]++
		nth := w.sent[seq]
		if nth > 1 {
			w.resent = true
			if t.ack != 0 {
				w.piggy = true
			}
		}
		if w.dropData != nil && w.dropData(seq, nth) {
			return network.Fault{Action: network.FaultDrop}
		}
		if w.reorder != nil && w.reorder(seq, nth) {
			return network.Fault{Action: network.FaultReorder}
		}
	}
	return network.Fault{}
}

// lossCfg keeps the timer far from anything acknowledgements can do in
// time: a test that expects no timeout asserts it finished inside one RTO.
func lossCfg(rto time.Duration) Config {
	return Config{RTO: rto, AckDelay: 200 * time.Microsecond, Tick: 100 * time.Microsecond}
}

// scripted builds a two-locality reliable fabric over a zero-cost
// simulated wire driven by w, collecting what locality 1 is handed.
// Nothing is delivered before w.open.
func scripted(t *testing.T, w *wireScript, cfg Config) (*Fabric, *collector) {
	t.Helper()
	inner := network.NewSimFabric(2, network.CostModel{})
	inner.SetFaultHook(w.hook)
	w.gate = make(chan struct{})
	f := New(gatedFabric{inner, w.gate}, cfg)
	t.Cleanup(func() { f.Close() })
	c := &collector{}
	f.SetHandler(1, c.handler)
	f.SetHandler(0, func(_ int, p []byte) { network.PutPayload(p) })
	return f, c
}

func burst(t *testing.T, f *Fabric, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := f.Send(0, 1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// settled waits for n in-order deliveries and an empty window, and
// returns how long after start the last delivery was seen.
func settled(t *testing.T, f *Fabric, c *collector, n int, start time.Time) time.Duration {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return c.count() >= n }, "all deliveries")
	took := time.Since(start)
	waitFor(t, 10*time.Second, func() bool { return f.Pending() == 0 }, "window drain")
	got := c.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d payloads, want exactly %d", len(got), n)
	}
	for i, b := range got {
		if tag := int(binary.LittleEndian.Uint32(b)); tag != i {
			t.Fatalf("delivery %d carries tag %d (out of order)", i, tag)
		}
	}
	return took
}

func firstOf(seqs ...uint64) func(uint64, int) bool {
	return func(seq uint64, nth int) bool {
		for _, s := range seqs {
			if seq == s && nth == 1 {
				return true
			}
		}
		return false
	}
}

func TestLossOneHoleOneResend(t *testing.T) {
	const rto = 500 * time.Millisecond
	w := &wireScript{dropData: firstOf(20)}
	f, c := scripted(t, w, lossCfg(rto))
	reg := counters.NewRegistry()
	f.Attach(reg, nil)
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	if took := settled(t, f, c, 64, start); took >= rto {
		t.Errorf("delivery resumed after %v, want under one RTO (%v): the hole waited for the timer", took, rto)
	}
	// The registry shows why the link resent, and its timer state.
	for path, ok := range map[string]func(float64) bool{
		"/network/reliability/fast-retransmits":         func(v float64) bool { return v == 1 },
		"/network/reliability/timeouts":                 func(v float64) bool { return v == 0 },
		"/network/reliability/sacks":                    func(v float64) bool { return v > 0 },
		"/network{locality#0/to#1}/reliability/srtt-us": func(v float64) bool { return v > 0 && v < 500e3 },
		"/network{locality#0/to#1}/reliability/rto-us":  func(v float64) bool { return v == 500e3 },
	} {
		if v, err := reg.Value(path); err != nil || !ok(v) {
			t.Errorf("counter %s = %v (err %v)", path, v, err)
		}
	}
	st := f.ReliabilityStats()
	if st.Retransmits != 1 || st.FastRetransmits != 1 || st.Timeouts != 0 {
		t.Errorf("retransmits=%d fast=%d timeouts=%d, want 1/1/0", st.Retransmits, st.FastRetransmits, st.Timeouts)
	}
	if st.DuplicatesSuppressed != 0 {
		t.Errorf("DuplicatesSuppressed = %d, want 0 (nothing that arrived was resent)", st.DuplicatesSuppressed)
	}
	if st.SacksSent == 0 {
		t.Error("no SACK-bearing ACK was sent past a hole")
	}
}

func TestLossScatteredHolesOneResendEach(t *testing.T) {
	const rto = 500 * time.Millisecond
	holes := []uint64{5, 20, 21, 40, 61}
	w := &wireScript{dropData: firstOf(holes...)}
	f, c := scripted(t, w, lossCfg(rto))
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	if took := settled(t, f, c, 64, start); took >= rto {
		t.Errorf("delivery took %v, want under one RTO (%v)", took, rto)
	}
	st := f.ReliabilityStats()
	if k := int64(len(holes)); st.Retransmits != k || st.FastRetransmits != k || st.Timeouts != 0 {
		t.Errorf("retransmits=%d fast=%d timeouts=%d, want %d/%d/0", st.Retransmits, st.FastRetransmits, st.Timeouts, k, k)
	}
}

// Every ACK is lost until the timer has resent something: the sender
// learns nothing from the receiver, so only the timer can restart the
// exchange. Its one resend (the oldest frame, long delivered) draws an
// immediate SACK that names the hole.
func TestLossAllSacksLostRecoversByTimer(t *testing.T) {
	w := &wireScript{
		dropData: firstOf(20),
		dropAck:  func(w *wireScript) bool { return !w.resent },
	}
	f, c := scripted(t, w, lossCfg(50*time.Millisecond))
	burst(t, f, 0, 64)
	w.open()
	settled(t, f, c, 64, time.Now())
	st := f.ReliabilityStats()
	if st.Timeouts != 1 || st.FastRetransmits != 1 || st.Retransmits != 2 {
		t.Errorf("retransmits=%d fast=%d timeouts=%d, want 2/1/1", st.Retransmits, st.FastRetransmits, st.Timeouts)
	}
	if st.DuplicatesSuppressed != 1 {
		t.Errorf("DuplicatesSuppressed = %d, want 1 (the timer's resend of frame 1)", st.DuplicatesSuppressed)
	}
}

// The fast retransmission is lost as well, and nothing is sent after it
// that could show it was overtaken: the timer resends the hole.
func TestLossLostRetransmissionRecoversByTimer(t *testing.T) {
	w := &wireScript{dropData: func(seq uint64, nth int) bool { return seq == 20 && nth <= 2 }}
	f, c := scripted(t, w, lossCfg(50*time.Millisecond))
	burst(t, f, 0, 64)
	w.open()
	settled(t, f, c, 64, time.Now())
	st := f.ReliabilityStats()
	if st.Timeouts != 1 || st.FastRetransmits != 1 || st.Retransmits != 2 {
		t.Errorf("retransmits=%d fast=%d timeouts=%d, want 2/1/1", st.Retransmits, st.FastRetransmits, st.Timeouts)
	}
}

// While traffic keeps flowing, a lost retransmission does not wait for
// the timer: frames sent after it arrive, which shows it was overtaken.
func TestLossLostRetransmissionResentOnLaterArrivals(t *testing.T) {
	const rto = 2 * time.Second
	w := &wireScript{dropData: func(seq uint64, nth int) bool { return seq == 20 && nth <= 2 }}
	f, c := scripted(t, w, lossCfg(rto))
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	waitFor(t, 5*time.Second, func() bool { return f.ReliabilityStats().FastRetransmits == 1 }, "first fast retransmit")
	// The second retransmission needs a smoothed round trip to have
	// passed since the first, and arrivals sent after it.
	sent := 64
	for c.count() < 20 { // frame 20 still missing
		if time.Since(start) > rto/2 {
			t.Fatalf("hole still open after %d frames", sent)
		}
		time.Sleep(2 * time.Millisecond)
		burst(t, f, sent, 8)
		sent += 8
	}
	settled(t, f, c, sent, start)
	if st := f.ReliabilityStats(); st.Timeouts != 0 || st.FastRetransmits < 2 {
		t.Errorf("fast=%d timeouts=%d, want at least 2 and 0", st.FastRetransmits, st.Timeouts)
	}
}

// The last frame of a burst is lost with nothing behind it to expose the
// hole: recovery is the timer's, one RTO after the last progress, and
// the RTO is the configured floor because the measured round trips are
// far below it.
func TestLossTailRecoversAtRTOFloor(t *testing.T) {
	const rto = 50 * time.Millisecond
	w := &wireScript{dropData: firstOf(64)}
	f, c := scripted(t, w, lossCfg(rto))
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	took := settled(t, f, c, 64, start)
	if took < rto || took >= 3*rto {
		t.Errorf("tail recovered after %v, want within [%v, %v)", took, rto, 3*rto)
	}
	st := f.ReliabilityStats()
	if st.Timeouts != 1 || st.FastRetransmits != 0 || st.Retransmits != 1 {
		t.Errorf("retransmits=%d fast=%d timeouts=%d, want 1/0/1", st.Retransmits, st.FastRetransmits, st.Timeouts)
	}
	if len(st.Links) != 1 || st.Links[0].SRTT <= 0 || st.Links[0].SRTT >= rto {
		t.Errorf("link stats %+v: want one link with 0 < SRTT < %v", st.Links, rto)
	}
}

// A whole tail is lost (the link blacked out): the timer resends the
// oldest frame only, and once that alone is acknowledged the rest follow
// without a timeout each.
func TestLossTailBurstRecoversInOneTimeout(t *testing.T) {
	const rto = 50 * time.Millisecond
	w := &wireScript{dropData: func(seq uint64, nth int) bool { return seq > 40 && nth == 1 }}
	f, c := scripted(t, w, lossCfg(rto))
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	if took := settled(t, f, c, 64, start); took >= 3*rto {
		t.Errorf("24-frame tail recovered after %v, want under %v", took, 3*rto)
	}
	st := f.ReliabilityStats()
	if st.Timeouts != 1 || st.Retransmits != 24 {
		t.Errorf("retransmits=%d timeouts=%d, want 24/1", st.Retransmits, st.Timeouts)
	}
}

// Frames displaced by one position are reordered, not lost: each draws an
// immediate SACK, none reaches DupThresh, nothing is resent.
func TestLossReorderBelowDupThreshNoResend(t *testing.T) {
	const rto = 500 * time.Millisecond
	w := &wireScript{reorder: firstOf(10, 30, 50)}
	f, c := scripted(t, w, lossCfg(rto))
	start := time.Now()
	burst(t, f, 0, 64)
	w.open()
	if took := settled(t, f, c, 64, start); took >= rto {
		t.Errorf("delivery took %v, want under one RTO (%v)", took, rto)
	}
	st := f.ReliabilityStats()
	if st.Retransmits != 0 {
		t.Errorf("Retransmits = %d, want 0", st.Retransmits)
	}
	if st.SacksSent == 0 {
		t.Error("reordered arrivals sent no SACK")
	}
}

// Both directions carry data and lose frames, so retransmissions have a
// reverse stream to acknowledge: they must carry it.
func TestLossRetransmissionCarriesPiggyback(t *testing.T) {
	w := &wireScript{dropData: func(seq uint64, nth int) bool { return seq%10 == 5 && nth == 1 }}
	f, c := scripted(t, w, lossCfg(500*time.Millisecond))
	back := &collector{}
	f.SetHandler(0, back.handler)
	w.open()
	start := time.Now()
	for i := 0; i < 100; i++ {
		burst(t, f, i, 1)
		if err := f.Send(1, 0, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	settled(t, f, c, 100, start)
	settled(t, f, back, 100, start)
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.resent || !w.piggy {
		t.Errorf("resent=%v piggybacked=%v: want retransmissions that acknowledge the reverse link", w.resent, w.piggy)
	}
}

// stubFabric swallows every frame: the test plays the peer.
type stubFabric struct{ n int }

func (s stubFabric) Send(_, _ int, p []byte) error   { network.PutPayload(p); return nil }
func (s stubFabric) SetHandler(int, network.Handler) {}
func (s stubFabric) Localities() int                 { return s.n }
func (s stubFabric) Model() network.CostModel        { return network.CostModel{} }
func (s stubFabric) Stats() network.Stats            { return network.Stats{} }
func (s stubFabric) Close() error                    { return nil }

// stubbed is a fabric whose wire is the test: what it sends vanishes, and
// the test injects what the peer would answer through onFrame. The timer
// is an hour away, so only f.expire fires it.
func stubbed(t testing.TB) *Fabric {
	t.Helper()
	f := New(stubFabric{n: 2}, Config{RTO: time.Hour, RTOMax: 4 * time.Hour})
	t.Cleanup(func() { f.Close() })
	f.SetHandler(0, func(_ int, p []byte) { network.PutPayload(p) })
	f.SetHandler(1, func(_ int, p []byte) { network.PutPayload(p) })
	return f
}

// ackFrom injects a standalone ACK for the 0->1 link as locality 1 would
// send it.
func ackFrom(f *Fabric, ack uint64, epoch uint32, sack []byte) {
	f.onFrame(1, 0, encodeFrame(kindAck, 0, ack, 0, epoch, sack))
}

func TestKarnRetransmittedFrameTimesNothing(t *testing.T) {
	f := stubbed(t)
	burst(t, f, 0, 1)
	ts := f.txFor(0, 1)
	f.expire(ts, ts.deadline.Load())
	if st := f.ReliabilityStats(); st.Timeouts != 1 || st.Retransmits != 1 {
		t.Fatalf("retransmits=%d timeouts=%d after one expiry, want 1/1", st.Retransmits, st.Timeouts)
	}

	// Frame 1 was sent twice: its ACK cannot say which copy it answers.
	ackFrom(f, 1, ts.epoch, nil)
	ts.mu.Lock()
	srtt, rto := ts.est.srtt, ts.rto
	ts.mu.Unlock()
	if srtt != 0 {
		t.Errorf("SRTT = %v after the ACK of a retransmitted frame, want no sample", srtt)
	}
	if rto != 2*time.Hour {
		t.Errorf("RTO = %v, want the backed-off 2h kept until a valid sample", rto)
	}

	// Frame 2 is sent once: its ACK is a sample, and ends the backoff.
	burst(t, f, 1, 1)
	time.Sleep(time.Millisecond) // a round trip worth measuring
	ackFrom(f, 2, ts.epoch, nil)
	ts.mu.Lock()
	srtt, rto = ts.est.srtt, ts.rto
	ts.mu.Unlock()
	if srtt < time.Millisecond || srtt > time.Minute {
		t.Errorf("SRTT = %v after the ACK of a frame sent once, want about the elapsed time", srtt)
	}
	if rto != time.Hour {
		t.Errorf("RTO = %v, want the 1h floor back", rto)
	}
	if got := f.Pending(); got != 0 {
		t.Errorf("Pending() = %d, want 0", got)
	}
}

// TestTimeoutsBackOffToRTOMaxWithJitter serves one frame's timer again
// and again: each expiry doubles the timeout until RTOMax, and each
// deadline it arms lies within ±10 % of the backed-off timeout.
func TestTimeoutsBackOffToRTOMaxWithJitter(t *testing.T) {
	f := stubbed(t) // RTO 1h, RTOMax 4h
	burst(t, f, 0, 1)
	ts := f.txFor(0, 1)
	jittered := false
	for i, want := range []time.Duration{2, 4, 4, 4, 4} {
		want *= time.Hour
		tick := ts.deadline.Load()
		f.expire(ts, tick)
		ts.mu.Lock()
		rto := ts.rto
		ts.mu.Unlock()
		if rto != want {
			t.Fatalf("expiry %d: RTO = %v, want %v", i+1, rto, want)
		}
		armed := time.Duration(ts.deadline.Load() - tick)
		if lo, hi := want*9/10, want*11/10; armed < lo || armed > hi {
			t.Errorf("expiry %d: deadline armed %v after the tick, want within [%v, %v]", i+1, armed, lo, hi)
		}
		jittered = jittered || armed != want
	}
	if !jittered {
		t.Error("every deadline was exactly the backed-off RTO, want jitter")
	}
	if st := f.ReliabilityStats(); st.Timeouts != 5 || st.Retransmits != 5 {
		t.Errorf("retransmits=%d timeouts=%d after five expiries, want 5/5", st.Retransmits, st.Timeouts)
	}
}

func TestRTTEstimatorRFC6298(t *testing.T) {
	const ms = time.Millisecond
	var e rttEstimator
	if got := e.rto(3*ms, 100*ms); got != 3*ms {
		t.Errorf("RTO before any sample = %v, want the 3ms floor", got)
	}
	for i, step := range []struct {
		r, srtt, rttvar, rto time.Duration
	}{
		{80 * ms, 80 * ms, 40 * ms, 240 * ms},                   // first: SRTT = R, RTTVAR = R/2
		{80 * ms, 80 * ms, 30 * ms, 200 * ms},                   // RTTVAR = 3/4·40 + 1/4·0
		{160 * ms, 90 * ms, 42500 * time.Microsecond, 250 * ms}, // 3/4·30 + 1/4·80; 7/8·80 + 1/8·160; 260 clamped
	} {
		e.observe(step.r)
		if e.srtt != step.srtt || e.rttvar != step.rttvar {
			t.Errorf("step %d: srtt=%v rttvar=%v, want %v %v", i, e.srtt, e.rttvar, step.srtt, step.rttvar)
		}
		if got := e.rto(3*ms, 250*ms); got != step.rto {
			t.Errorf("step %d: rto = %v, want %v", i, got, step.rto)
		}
	}
	var fast rttEstimator
	fast.observe(200 * time.Microsecond)
	if got := fast.rto(3*ms, 100*ms); got != 3*ms {
		t.Errorf("RTO with a 200µs round trip = %v, want the 3ms floor", got)
	}
}

// The sender is mid-recovery (marks set, a hole resent, the timer
// running) when the peer is failed: nothing of it may survive into the
// reopened session.
func TestFailPeerMidRecoveryLeavesNothingMarked(t *testing.T) {
	w := &wireScript{}
	blackhole := true
	w.dropData = func(seq uint64, _ int) bool { return blackhole && seq == 20 }
	f, c := scripted(t, w, lossCfg(500*time.Millisecond))
	burst(t, f, 0, 64)
	w.open()
	// Wait until the whole burst has arrived and the hole has been
	// resent: nothing is in flight that could refill what FailPeer clears.
	ts, rs := f.txFor(0, 1), f.rxFor(0, 1)
	waitFor(t, 5*time.Second, func() bool {
		rs.mu.Lock()
		defer rs.mu.Unlock()
		return rs.buffered == 44 && f.ReliabilityStats().FastRetransmits == 1
	}, "frames 21..64 buffered and the hole resent")
	ts.mu.Lock()
	marked := ts.nSacked
	ts.mu.Unlock()
	if marked == 0 {
		t.Fatal("no SACK marks while the hole is open; the test exercises nothing")
	}

	f.FailPeer(1)
	ts.mu.Lock()
	if ts.una != ts.next || ts.nSacked != 0 || ts.recover != 0 || ts.deadline.Load() != 0 || !ts.down {
		t.Errorf("after FailPeer: una=%d next=%d nSacked=%d recover=%d deadline=%d down=%v",
			ts.una, ts.next, ts.nSacked, ts.recover, ts.deadline.Load(), ts.down)
	}
	for i, e := range ts.ring {
		if e.payload != nil || e.sacked || e.rexmit {
			t.Errorf("after FailPeer: tx ring slot %d still holds %+v", i, e)
		}
	}
	ts.mu.Unlock()
	rs.mu.Lock()
	if rs.buffered != 0 || rs.ackDue.Load() != 0 {
		t.Errorf("after FailPeer: reorder buffer holds %d frames, ackDue=%d", rs.buffered, rs.ackDue.Load())
	}
	for i, b := range rs.buf {
		if b != nil {
			t.Errorf("after FailPeer: reorder slot %d still holds a frame", i)
		}
	}
	rs.mu.Unlock()
	if got := f.Pending(); got != 0 {
		t.Errorf("Pending() = %d after FailPeer, want 0", got)
	}

	w.mu.Lock()
	blackhole = false
	w.mu.Unlock()
	f.ReopenPeer(1)
	before := f.ReliabilityStats().Retransmits
	delivered := c.count() // frames 1..19 of the old session
	if delivered != 19 {
		t.Errorf("old session delivered %d frames, want the 19 before the hole", delivered)
	}
	burst(t, f, 100, 3)
	waitFor(t, 5*time.Second, func() bool { return c.count() == delivered+3 && f.Pending() == 0 }, "fresh session delivery")
	if got := f.ReliabilityStats().Retransmits; got != before {
		t.Errorf("Retransmits grew %d -> %d in the fresh session", before, got)
	}
}

// FuzzAckFrame plays a hostile or confused peer against a window of eight
// frames: whatever arrives as an ACK, the sender must not panic, must not
// release a frame the ACK does not cover, and must ignore it entirely
// when it names another session or a frame never sent.
func FuzzAckFrame(f *testing.F) {
	f.Add(uint64(3), true, []byte{0b0111_0000}, uint8(0))
	f.Add(uint64(0), true, []byte{0xFE, 0xFF, 0xFF}, uint8(0))                  // bits beyond next-1
	f.Add(uint64(8), true, []byte(nil), uint8(0))                               // everything
	f.Add(uint64(9), true, []byte{0xFF}, uint8(0))                              // a frame never sent
	f.Add(^uint64(0), true, []byte{0xFF}, uint8(0))                             // wraps
	f.Add(uint64(2), false, []byte{0xFF, 0xFF}, uint8(0))                       // wrong epoch
	f.Add(uint64(2), true, make([]byte, 4*sackBytes), uint8(0))                 // oversized bitmap
	f.Add(uint64(2), true, []byte{0xFF, 0xFF, 0xFF, 0xFF}, uint8(trailerBytes)) // truncated to less than a trailer
	f.Add(uint64(1), true, []byte{0x01}, uint8(0))                              // bit 0: the frame the receiver lacks
	f.Fuzz(func(t *testing.T, ack uint64, sameEpoch bool, sack []byte, cut uint8) {
		const sent = 8
		fab := stubbed(t)
		burst(t, fab, 0, sent)
		ts := fab.txFor(0, 1)
		epoch := ts.epoch
		if !sameEpoch {
			epoch++
		}
		frame := encodeFrame(kindAck, 0, ack, 0, epoch, sack)
		frame = frame[min(int(cut), len(frame)):] // the trailer ends the frame: cut from the front
		payload, _, valid := parseFrame(frame)
		var bitmap []byte // what survives of sack; onFrame recycles frame
		if valid {
			bitmap = append(bitmap, payload...)
		}
		fab.onFrame(1, 0, frame)

		ts.mu.Lock()
		defer ts.mu.Unlock()
		if ts.next != sent+1 || ts.una < 1 || ts.una > ts.next {
			t.Fatalf("window [%d, %d) after the ACK, want within [1, %d)", ts.una, ts.next, sent+1)
		}
		want := uint64(1)
		if valid && sameEpoch && ack <= sent {
			want = ack + 1
		}
		if ts.una != want {
			t.Fatalf("una = %d after ack=%d sameEpoch=%v valid=%v, want %d", ts.una, ack, sameEpoch, valid, want)
		}
		marked := 0
		for s := uint64(1); s <= sent; s++ {
			e := ts.entry(s)
			switch {
			case s < ts.una:
				if e.payload != nil || e.sacked {
					t.Fatalf("released frame %d still holds %+v", s, *e)
				}
			case e.payload == nil:
				t.Fatalf("frame %d is in the window [%d, %d) without its payload", s, ts.una, ts.next)
			case e.sacked:
				marked++
				if !valid || !sameEpoch || ack > sent || s <= ack+1 {
					t.Fatalf("frame %d marked by ack=%d sameEpoch=%v valid=%v", s, ack, sameEpoch, valid)
				}
				if bit := s - ack - 1; bit/8 >= uint64(len(bitmap)) || bitmap[bit/8]&(1<<(bit%8)) == 0 {
					t.Fatalf("frame %d marked without its bit set", s)
				}
			}
		}
		if marked != ts.nSacked {
			t.Fatalf("nSacked = %d, %d entries marked", ts.nSacked, marked)
		}
	})
}
