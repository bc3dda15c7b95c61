package reliable

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
)

// The delayed ACK's byte bound (ackBytes): a one-way stream of large
// frames is acknowledged every ackBytes of delivered payload, from the
// scanner, while small frames keep waiting for AckDelay. Neither that ACK
// nor a timeout's recovery resends are written from the read loop.

// sized builds an owned wire buffer of n bytes, with the port's frame
// slack, carrying tag i in its first four bytes.
func sized(i, n int) []byte {
	b := network.GetPayload(n + network.FrameSlack)[:n]
	binary.LittleEndian.PutUint32(b, uint32(i))
	return b
}

// ackBytesCfg leaves only the byte bound able to acknowledge anything: the
// delayed ACK and the retransmission timer are an hour away.
func ackBytesCfg() Config {
	return Config{RTO: time.Hour, RTOMax: time.Hour, AckDelay: time.Hour}
}

// oneWay sends n frames of size bytes from locality 0 to 1 over a scripted
// wire and waits until locality 1 has been handed all of them.
func oneWay(t *testing.T, n, size int) *Fabric {
	t.Helper()
	w := &wireScript{}
	f, c := scripted(t, w, ackBytesCfg())
	w.open()
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, sized(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return c.count() == n }, "all deliveries")
	return f
}

func TestAckBytesLargeFramesAckedWithoutDelay(t *testing.T) {
	f := oneWay(t, 32, 64<<10)
	waitFor(t, 100*time.Millisecond, func() bool { return f.Pending() <= 1 }, "64 KiB frames acknowledged by bytes")
}

func TestAckBytesSmallFramesWaitForDelay(t *testing.T) {
	f := oneWay(t, 32, 1<<10)
	time.Sleep(100 * time.Millisecond)
	if acks, pending := f.ReliabilityStats().AcksSent, f.Pending(); acks != 0 || pending != 32 {
		t.Errorf("32 frames of 1 KiB: %d standalone ACKs, %d frames pending; want 0 and 32 until AckDelay", acks, pending)
	}
}

// TestAckBytesLeaveFromScanner: the in-order arrival that reaches the
// bound gets no ACK from receive, so the fabric's read loop writes none;
// the scanner sends it.
func TestAckBytesLeaveFromScanner(t *testing.T) {
	f := New(stubFabric{n: 2}, ackBytesCfg())
	t.Cleanup(func() { f.Close() })
	f.SetHandler(1, func(_ int, p []byte) { network.PutPayload(p) })
	for seq := uint64(1); seq <= 4; seq++ {
		kept, ackNow, _ := f.receive(0, 1, seq, 1, sized(int(seq), ackBytes/2))
		if !kept || ackNow != nil {
			t.Fatalf("in-order frame %d: kept=%v ackNow=%v, want the buffer kept and no ACK for the read loop", seq, kept, ackNow != nil)
		}
		if seq%2 == 0 {
			want := int64(seq / 2)
			waitFor(t, 5*time.Second, func() bool { return f.acks.Get() == want }, "the scanner's ACK")
		}
	}
	if acks := f.acks.Get(); acks != 2 {
		t.Errorf("%d ACKs for 4 frames of half the bound, want 2", acks)
	}
}

// TestAckBytesBidirectionalTCP streams 64 KiB frames both ways at once
// over sockets. A lossless link writes nothing from the read loop — no
// byte-due ACK, no recovery resend after a spurious timeout — so the two
// read loops never block on each other's full sockets.
func TestAckBytesBidirectionalTCP(t *testing.T) {
	const frames, size = 256, 64 << 10
	inner, err := network.NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	f := New(inner, Config{})
	t.Cleanup(func() { f.Close() })
	var got [2]atomic.Int64
	for dst := range got {
		f.SetHandler(dst, func(_ int, p []byte) {
			got[dst].Add(1)
			network.PutPayload(p)
		})
	}
	// The senders report to the test only once both have returned. At the
	// deadline, closing the sockets releases whatever is blocked on them.
	var errs [2]error
	var wg sync.WaitGroup
	for src := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames && errs[src] == nil; i++ {
				errs[src] = f.Send(src, 1-src, sized(i, size))
			}
		}()
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()
	select {
	case <-sent:
	case <-time.After(30 * time.Second):
		inner.Close()
		t.Fatalf("senders blocked with %d and %d of %d frames delivered", got[1].Load(), got[0].Load(), frames)
	}
	for src, err := range errs {
		if err != nil {
			t.Fatalf("send from %d: %v", src, err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		return got[0].Load() == frames && got[1].Load() == frames && f.Pending() == 0
	}, "both streams delivered and acknowledged")
}

// heldWire is a stub wire whose sends block while a gate is held, and
// which counts the data frames it is given.
type heldWire struct {
	stubFabric
	gate *atomic.Pointer[chan struct{}]
	data *atomic.Int64
}

func (w heldWire) Send(src, dst int, p []byte) error {
	if g := w.gate.Load(); g != nil {
		<-*g
	}
	if _, t, ok := parseFrame(p); ok && t.kind == kindData {
		w.data.Add(1)
	}
	network.PutPayload(p)
	return nil
}

// TestRecoveryResendsLeaveFromScanner: after a timeout, the ACK of the
// resent frame releases two more resends. The goroutine that delivered
// the ACK — the fabric's read loop — returns while the wire is blocked;
// the scanner writes them once it is not.
func TestRecoveryResendsLeaveFromScanner(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	var data atomic.Int64
	f := New(heldWire{stubFabric{n: 2}, &gate, &data}, Config{RTO: time.Hour, RTOMax: 4 * time.Hour})
	t.Cleanup(func() { f.Close() })
	held := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(held) }) }
	t.Cleanup(release) // runs first: Close waits for the scanner
	burst(t, f, 0, 4)
	ts := f.txFor(0, 1)
	f.expire(ts, ts.deadline.Load()) // frame 1 resent; 2..4 count as lost
	gate.Store(&held)

	acked := make(chan struct{})
	go func() {
		ackFrom(f, 1, ts.epoch, nil)
		close(acked)
	}()
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("the ACK's handler is blocked writing recovery resends to the wire")
	}
	if got := f.ReliabilityStats().Retransmits; got != 3 {
		t.Fatalf("%d retransmissions, want the timeout's 1 and the recovery's 2", got)
	}
	release()
	waitFor(t, 5*time.Second, func() bool { return data.Load() == 4+3 }, "the scanner's recovery resends")
}

// TestFastRetransmitLeavesFromScanner: a SACK that shows frame 1 lost
// behind dupThresh later arrivals decides its fast retransmission. The
// goroutine that delivered the SACK — the fabric's read loop — returns
// while the wire is blocked; the scanner writes the resend once it is
// not.
func TestFastRetransmitLeavesFromScanner(t *testing.T) {
	var gate atomic.Pointer[chan struct{}]
	var data atomic.Int64
	f := New(heldWire{stubFabric{n: 2}, &gate, &data}, Config{RTO: time.Hour, RTOMax: 4 * time.Hour})
	t.Cleanup(func() { f.Close() })
	held := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(held) }) }
	t.Cleanup(release) // runs first: Close waits for the scanner
	burst(t, f, 0, 4)
	ts := f.txFor(0, 1)
	gate.Store(&held)

	sacked := make(chan struct{})
	go func() {
		ackFrom(f, 0, ts.epoch, []byte{0b1110}) // frames 2, 3 and 4 arrived
		close(sacked)
	}()
	select {
	case <-sacked:
	case <-time.After(5 * time.Second):
		t.Fatal("the SACK's handler is blocked writing a fast retransmission to the wire")
	}
	if st := f.ReliabilityStats(); st.Retransmits != 1 || st.FastRetransmits != 1 {
		t.Fatalf("retransmits=%d fast=%d, want frame 1's one fast retransmission", st.Retransmits, st.FastRetransmits)
	}
	release()
	waitFor(t, 5*time.Second, func() bool { return data.Load() == 4+1 }, "the scanner's fast retransmission")
}
