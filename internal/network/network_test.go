package network

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector is a test handler capturing delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []struct {
		src     int
		payload []byte
	}
	ch chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1<<16)}
}

func (c *collector) handler(src int, payload []byte) {
	c.mu.Lock()
	c.msgs = append(c.msgs, struct {
		src     int
		payload []byte
	}{src, payload})
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestSimFabricDelivery(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	if err := f.Send(0, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msgs[0].src != 0 || string(c.msgs[0].payload) != "hello" {
		t.Errorf("got %+v", c.msgs[0])
	}
}

func TestSimFabricFIFOPerLink(t *testing.T) {
	f := NewSimFabric(2, CostModel{Latency: 200 * time.Microsecond})
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	const n = 200
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, n, 5*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		if c.msgs[i].payload[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, c.msgs[i].payload[0])
		}
	}
}

func TestSimFabricLatency(t *testing.T) {
	lat := 2 * time.Millisecond
	f := NewSimFabric(2, CostModel{Latency: lat})
	defer f.Close()
	got := make(chan time.Time, 1)
	f.SetHandler(1, func(src int, p []byte) { got <- time.Now() })
	start := time.Now()
	if err := f.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	at := <-got
	if elapsed := at.Sub(start); elapsed < lat {
		t.Errorf("delivered after %v, want >= %v", elapsed, lat)
	}
}

func TestSimFabricSendCPUCost(t *testing.T) {
	oh := 500 * time.Microsecond
	f := NewSimFabric(2, CostModel{SendOverhead: oh})
	defer f.Close()
	f.SetHandler(1, func(int, []byte) {})
	start := time.Now()
	if err := f.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < oh {
		t.Errorf("Send returned after %v, want >= %v (send CPU must be paid by caller)", elapsed, oh)
	}
}

func TestSimFabricBandwidthSerializes(t *testing.T) {
	// 1 byte/µs and two 1000-byte messages: second delivery must trail
	// the first by ~1 ms of transmission time.
	f := NewSimFabric(2, CostModel{BandwidthBytesPerUS: 1})
	defer f.Close()
	times := make(chan time.Time, 2)
	f.SetHandler(1, func(int, []byte) { times <- time.Now() })
	payload := make([]byte, 1000)
	for i := 0; i < 2; i++ {
		if err := f.Send(0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	first := <-times
	second := <-times
	if gap := second.Sub(first); gap < 500*time.Microsecond {
		t.Errorf("deliveries %v apart, want >= 500µs (bandwidth must serialize)", gap)
	}
}

func TestSimFabricStats(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	defer f.Close()
	f.SetHandler(1, func(int, []byte) {})
	for i := 0; i < 3; i++ {
		if err := f.Send(0, 1, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.MessagesSent != 3 || s.BytesSent != 30 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSimFabricErrors(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	defer f.Close()
	f.SetHandler(1, func(int, []byte) {})
	if err := f.Send(0, 5, nil); !errors.Is(err, ErrBadLocality) {
		t.Errorf("out of range dst: %v", err)
	}
	if err := f.Send(-1, 1, nil); !errors.Is(err, ErrBadLocality) {
		t.Errorf("out of range src: %v", err)
	}
	if err := f.Send(1, 0, nil); err == nil {
		t.Error("send to locality without handler should fail")
	}
}

func TestSimFabricClose(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	f.SetHandler(1, func(int, []byte) {})
	if err := f.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestSimFabricFaultDrop(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	var n atomic.Int32
	f.SetFaultHook(func(src, dst int, p []byte) Fault {
		if n.Add(1)%2 == 1 {
			return Fault{Action: FaultDrop}
		}
		return Fault{Action: FaultDeliver}
	})
	for i := 0; i < 10; i++ {
		if err := f.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, 5, time.Second)
	time.Sleep(20 * time.Millisecond)
	if got := c.count(); got != 5 {
		t.Errorf("delivered %d, want 5", got)
	}
	if f.Stats().Dropped != 5 {
		t.Errorf("dropped = %d", f.Stats().Dropped)
	}
	f.SetFaultHook(nil) // removal must not panic
}

func TestSimFabricFaultDuplicate(t *testing.T) {
	f := NewSimFabric(2, CostModel{})
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	f.SetFaultHook(func(int, int, []byte) Fault { return Fault{Action: FaultDuplicate} })
	if err := f.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 2, time.Second)
	if f.Stats().Duplicated != 1 {
		t.Errorf("duplicated = %d", f.Stats().Duplicated)
	}
}

func TestSimFabricManyToOne(t *testing.T) {
	const senders = 4
	const per = 100
	f := NewSimFabric(senders+1, CostModel{Latency: 50 * time.Microsecond})
	defer f.Close()
	c := newCollector()
	f.SetHandler(senders, c.handler)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f.Send(s, senders, []byte{byte(s)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	c.wait(t, senders*per, 10*time.Second)
	if got := c.count(); got != senders*per {
		t.Errorf("delivered %d, want %d", got, senders*per)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	m := CostModel{
		SendOverhead:        10 * time.Microsecond,
		PerByteSendCPU:      time.Nanosecond,
		BandwidthBytesPerUS: 1000,
	}
	if got := m.SendCPU(1000); got != 11*time.Microsecond {
		t.Errorf("SendCPU = %v", got)
	}
	if got := m.TxTime(2000); got != 2*time.Microsecond {
		t.Errorf("TxTime = %v", got)
	}
	if got := (CostModel{}).TxTime(1 << 20); got != 0 {
		t.Errorf("infinite bandwidth TxTime = %v", got)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	m := DefaultCostModel()
	if m.SendOverhead <= 0 || m.RecvOverhead <= 0 || m.Latency <= 0 || m.BandwidthBytesPerUS <= 0 {
		t.Errorf("default model has zero fields: %+v", m)
	}
	// Per-message overhead must dominate per-byte cost for tiny parcels —
	// the regime the paper's toy application exercises.
	if m.SendCPU(32) < 2*m.SendCPU(0)/3 {
		t.Error("per-byte cost dominates tiny messages; model miscalibrated")
	}
}

func TestTCPFabricDelivery(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	for i := 0; i < 50; i++ {
		if err := f.Send(0, 1, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.wait(t, 50, 5*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < 50; i++ {
		if want := fmt.Sprintf("msg-%03d", i); string(c.msgs[i].payload) != want {
			t.Fatalf("message %d = %q, want %q", i, c.msgs[i].payload, want)
		}
		if c.msgs[i].src != 0 {
			t.Fatalf("src = %d", c.msgs[i].src)
		}
	}
	if f.Stats().MessagesSent != 50 {
		t.Errorf("stats = %+v", f.Stats())
	}
}

func TestTCPFabricBidirectional(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c0, c1 := newCollector(), newCollector()
	f.SetHandler(0, c0.handler)
	f.SetHandler(1, c1.handler)
	if err := f.Send(0, 1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, 1, time.Second)
	if err := f.Send(1, 0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	c0.wait(t, 1, time.Second)
}

func TestTCPFabricClose(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHandler(1, func(int, []byte) {})
	if err := f.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v", err)
	}
}

func TestTCPFabricLargePayload(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := newCollector()
	f.SetHandler(1, c.handler)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := f.Send(0, 1, big); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, 5*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs[0].payload) != len(big) {
		t.Fatalf("payload len = %d", len(c.msgs[0].payload))
	}
	for i := 0; i < len(big); i += 4099 {
		if c.msgs[0].payload[i] != big[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
}

// socketFabrics builds two localities on the socket fabric each way it is
// constructed: one in-process fabric hosting both (tx == rx), and a pair of
// single-locality fabrics wired with SetPeerAddr as two cluster processes
// are. tx hosts locality 0, rx locality 1.
var socketFabrics = map[string]func(t *testing.T) (tx, rx *TCPFabric){
	"tcp": func(t *testing.T) (*TCPFabric, *TCPFabric) {
		f, err := NewTCPFabric(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f, f
	},
	"peer": newPeerPair,
}

// bigFrame returns n patterned bytes, and checkBigFrame samples a received
// copy of them.
func bigFrame(n int) []byte {
	big := make([]byte, n)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return big
}

func checkBigFrame(t *testing.T, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("payload len = %d, want %d", len(got), len(want))
	}
	for i := 0; i < len(want); i += 4099 {
		if got[i] != want[i] {
			t.Fatalf("payload corrupt at %d", i)
		}
	}
}

// TestTCPFabricFirstFrameExceedsSocketBuffers sends, as the first frame
// on a fresh fabric, more bytes than the kernel will buffer for a
// connection nobody reads (Linux caps the two socket buffers at about
// 4 MiB + 6 MiB). The write can then finish only once the accept loop has
// registered the connection and started its read loop, so it must not
// hold the lock the accept loop needs: with the write under the
// fabric-wide mutex this deadlocked, and Close behind it.
func TestTCPFabricFirstFrameExceedsSocketBuffers(t *testing.T) {
	for name, build := range socketFabrics {
		t.Run(name, func(t *testing.T) {
			tx, rx := build(t)
			c := newCollector()
			rx.SetHandler(1, c.handler)
			big := bigFrame(16 << 20)
			sent := make(chan error, 1)
			go func() { sent <- tx.Send(0, 1, big) }()
			c.wait(t, 1, 5*time.Second)
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			checkBigFrame(t, c.msgs[0].payload, big)
		})
	}
}

// TestTCPFabricFirstFramesCrossBothWays is the same first frame sent by
// both ends at once: each write can finish only once the other end's accept
// loop has registered the connection, so neither end may hold, across its
// write, the lock its own accept loop needs — between two processes that
// was a distributed deadlock, and each side's Close hung behind it.
func TestTCPFabricFirstFramesCrossBothWays(t *testing.T) {
	for name, build := range socketFabrics {
		t.Run(name, func(t *testing.T) {
			a, b := build(t)
			c0, c1 := newCollector(), newCollector()
			a.SetHandler(0, c0.handler)
			b.SetHandler(1, c1.handler)
			big := bigFrame(16 << 20)
			sent := make(chan error, 2)
			go func() { sent <- a.SendBorrowed(0, 1, big) }()
			go func() { sent <- b.SendBorrowed(1, 0, big) }()
			c0.wait(t, 1, 5*time.Second)
			c1.wait(t, 1, 5*time.Second)
			for i := 0; i < 2; i++ {
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []*collector{c0, c1} {
				c.mu.Lock()
				checkBigFrame(t, c.msgs[0].payload, big)
				c.mu.Unlock()
			}
		})
	}
}

// TestTCPFabricStalledPeerDoesNotStallOthers: a peer that accepts a
// connection and stops reading holds up the sends to it and no others —
// the fabric carries the heartbeats that decide who is alive, so one stuck
// link must not silence a healthy one. Locality 2 is a raw listener that
// reads the hello and the frame header, which proves the 32 MiB write is
// under way, and nothing after: the write blocks on full socket buffers.
func TestTCPFabricStalledPeerDoesNotStallOthers(t *testing.T) {
	newPeer := func(self int) *TCPFabric {
		f, err := NewPeerFabric(PeerConfig{Localities: 3, Self: self})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
	a, b := newPeer(0), newPeer(1)
	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	writing := make(chan net.Conn, 1)
	go func() {
		conn, err := stalled.Accept()
		if err != nil {
			return
		}
		var head [helloSize + 8]byte
		_, _ = io.ReadFull(conn, head[:])
		writing <- conn // kept open, never read again
	}()
	_ = a.SetPeerAddr(1, b.Addr())
	_ = a.SetPeerAddr(2, stalled.Addr().String())
	c := newCollector()
	b.SetHandler(1, c.handler)

	blocked := make(chan error, 1)
	go func() { blocked <- a.SendBorrowed(0, 2, make([]byte, 32<<20)) }()
	var conn net.Conn
	select {
	case conn = <-writing:
		defer conn.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled peer never saw the frame begin")
	}
	if err := a.Send(0, 1, payloadFor("heartbeat")); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	select {
	case err := <-blocked:
		t.Fatalf("the send to the stalled peer returned (%v): the test stalled nothing", err)
	default:
	}
	// Close must not wait for the stalled write either; it fails it.
	_ = a.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Error("a 32 MiB write nobody read reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the stalled write blocked")
	}
}

// TestTCPFabricConcurrentFirstSends has many senders race the first dial
// of one link: every frame must arrive whole, whichever dial wins.
func TestTCPFabricConcurrentFirstSends(t *testing.T) {
	for name, build := range socketFabrics {
		t.Run(name, func(t *testing.T) {
			tx, rx := build(t)
			c := newCollector()
			rx.SetHandler(1, c.handler)
			const senders, each, size = 8, 50, 3000
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := tx.Send(0, 1, bytes.Repeat([]byte{byte(s)}, size)); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			c.wait(t, senders*each, 5*time.Second)
			c.mu.Lock()
			defer c.mu.Unlock()
			for i, m := range c.msgs {
				if len(m.payload) != size || bytes.Count(m.payload, m.payload[:1]) != size {
					t.Fatalf("frame %d interleaved or truncated (%d bytes)", i, len(m.payload))
				}
			}
		})
	}
}

func TestRendezvousCostModel(t *testing.T) {
	m := CostModel{
		SendOverhead:         10 * time.Microsecond,
		RecvOverhead:         5 * time.Microsecond,
		EagerThresholdBytes:  1000,
		RendezvousCPU:        20 * time.Microsecond,
		RendezvousPerByteCPU: 10 * time.Nanosecond,
	}
	if m.Rendezvous(1000) {
		t.Error("payload at the threshold should stay eager")
	}
	if !m.Rendezvous(1001) {
		t.Error("payload above the threshold should rendezvous")
	}
	// Eager message: base costs only.
	if got := m.SendCPU(500); got != 10*time.Microsecond {
		t.Errorf("eager SendCPU = %v", got)
	}
	// Rendezvous: base + fixed + per-excess-byte (1500 excess).
	want := 10*time.Microsecond + 20*time.Microsecond + 1500*10*time.Nanosecond
	if got := m.SendCPU(2500); got != want {
		t.Errorf("rendezvous SendCPU = %v, want %v", got, want)
	}
	wantRecv := 5*time.Microsecond + 20*time.Microsecond + 1500*10*time.Nanosecond
	if got := m.RecvCPU(2500); got != wantRecv {
		t.Errorf("rendezvous RecvCPU = %v, want %v", got, wantRecv)
	}
	if (CostModel{}).Rendezvous(1 << 30) {
		t.Error("zero threshold must disable the rendezvous path")
	}
}

func TestRendezvousTotalCostRisesWithMessageSize(t *testing.T) {
	// The design property behind the parquet U-shape: for a fixed total
	// byte volume, the total rendezvous surcharge must INCREASE as the
	// volume is packed into fewer, larger messages (excess-byte model),
	// while the base per-message cost decreases.
	m := CostModel{
		SendOverhead:         25 * time.Microsecond,
		EagerThresholdBytes:  2000,
		RendezvousCPU:        10 * time.Microsecond,
		RendezvousPerByteCPU: 30 * time.Nanosecond,
	}
	total := 400_000 // bytes
	cost := func(msgSize int) time.Duration {
		n := total / msgSize
		return time.Duration(n) * m.SendCPU(msgSize)
	}
	if cost(4000) >= cost(8000) {
		t.Errorf("surcharge did not rise: 4KB msgs %v, 8KB msgs %v", cost(4000), cost(8000))
	}
	small := cost(1000) // eager: highest per-message total
	if small <= cost(4000) {
		t.Errorf("eager small messages should cost more in base overhead: %v vs %v", small, cost(4000))
	}
}

func TestRendezvousDelaysDelivery(t *testing.T) {
	m := CostModel{
		Latency:             100 * time.Microsecond,
		EagerThresholdBytes: 100,
		RendezvousRTT:       3 * time.Millisecond,
	}
	f := NewSimFabric(2, m)
	defer f.Close()
	got := make(chan time.Time, 1)
	f.SetHandler(1, func(int, []byte) { got <- time.Now() })
	start := time.Now()
	if err := f.Send(0, 1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	at := <-got
	if elapsed := at.Sub(start); elapsed < 3*time.Millisecond {
		t.Errorf("rendezvous message delivered after %v, want >= RTT", elapsed)
	}
}
