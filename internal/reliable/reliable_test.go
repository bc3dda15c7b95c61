package reliable

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/network"
)

// collector records delivered payloads in arrival order and recycles the
// wire buffers, mimicking the parcel port's ownership protocol.
type collector struct {
	mu  sync.Mutex
	got [][]byte
}

func (c *collector) handler(src int, payload []byte) {
	b := make([]byte, len(payload))
	copy(b, payload)
	c.mu.Lock()
	c.got = append(c.got, b)
	c.mu.Unlock()
	network.PutPayload(payload)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.got))
	copy(out, c.got)
	return out
}

// fastCfg is a test configuration with timeouts small enough for quick
// convergence on the zero-cost simulated wire.
func fastCfg() Config {
	return Config{
		RTO:      2 * time.Millisecond,
		AckDelay: 200 * time.Microsecond,
		Tick:     100 * time.Microsecond,
	}
}

// payload builds an owned wire buffer carrying one tagged byte.
func payload(i int) []byte {
	b := network.GetPayload(4)
	binary.LittleEndian.PutUint32(b, uint32(i))
	return b
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReliableInOrderDelivery(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	f := New(inner, fastCfg())
	defer f.Close()
	c := &collector{}
	f.SetHandler(1, c.handler)
	f.SetHandler(0, func(int, []byte) {})

	const n = 200
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return c.count() == n }, "all deliveries")
	for i, b := range c.snapshot() {
		if got := int(binary.LittleEndian.Uint32(b)); got != i {
			t.Fatalf("delivery %d carries tag %d (out of order)", i, got)
		}
	}
	// With no reverse data traffic, only standalone ACKs can drain the
	// retransmission window: Pending reaching zero proves the ACK timer
	// works.
	waitFor(t, 5*time.Second, func() bool { return f.Pending() == 0 }, "window drain")
	if got := f.ReliabilityStats().AcksSent; got == 0 {
		t.Error("no standalone ACKs sent on a one-way link")
	}
}

func TestReliableExactlyOnceUnderDropAndDuplicate(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	// Deterministic hostile wire: drop every 3rd data frame's first
	// transmission, duplicate every 5th frame seen.
	var mu sync.Mutex
	seen := 0
	dropped := map[uint64]bool{}
	inner.SetFaultHook(func(src, dst int, frame []byte) network.Fault {
		_, tr, ok := parseFrame(frame)
		if !ok || tr.kind != kindData {
			return network.Fault{} // leave ACK frames alone
		}
		seq := tr.seq
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seq%3 == 0 && !dropped[seq] {
			dropped[seq] = true
			return network.Fault{Action: network.FaultDrop}
		}
		if seen%5 == 0 {
			return network.Fault{Action: network.FaultDuplicate}
		}
		return network.Fault{}
	})
	f := New(inner, fastCfg())
	defer f.Close()
	c := &collector{}
	f.SetHandler(1, c.handler)
	f.SetHandler(0, func(int, []byte) {})

	const n = 300
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return c.count() >= n }, "all deliveries")
	time.Sleep(10 * time.Millisecond) // let any stray duplicate surface
	if got := c.count(); got != n {
		t.Fatalf("delivered %d payloads, want exactly %d", got, n)
	}
	for i, b := range c.snapshot() {
		if got := int(binary.LittleEndian.Uint32(b)); got != i {
			t.Fatalf("delivery %d carries tag %d (out of order)", i, got)
		}
	}
	st := f.ReliabilityStats()
	if st.Retransmits == 0 {
		t.Error("expected retransmissions under injected drops")
	}
	if st.DuplicatesSuppressed == 0 {
		t.Error("expected suppressed duplicates under injected duplication")
	}
}

func TestReliableGarbageFrameIgnored(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	f := New(inner, fastCfg())
	defer f.Close()
	c := &collector{}
	f.SetHandler(1, c.handler)
	f.SetHandler(0, func(int, []byte) {})

	// Inject raw garbage below the protocol: short frames and bad magic
	// must be discarded without panic or delivery.
	for _, raw := range [][]byte{{}, {0x01}, {0xFF, 1, 2, 3}, make([]byte, 18)} {
		b := network.GetPayload(len(raw))
		copy(b, raw)
		if err := inner.Send(0, 1, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Send(0, 1, payload(7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return c.count() == 1 }, "the one valid delivery")
	time.Sleep(5 * time.Millisecond)
	if got := c.count(); got != 1 {
		t.Fatalf("delivered %d payloads, want 1 (garbage must not deliver)", got)
	}
}

func TestReliableSendValidation(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	f := New(inner, fastCfg())
	f.SetHandler(0, func(int, []byte) {})
	f.SetHandler(1, func(int, []byte) {})
	if err := f.Send(0, 5, make([]byte, 4)); !errors.Is(err, network.ErrBadLocality) {
		t.Errorf("Send to out-of-range locality = %v, want ErrBadLocality", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 1, make([]byte, 4)); !errors.Is(err, network.ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}
