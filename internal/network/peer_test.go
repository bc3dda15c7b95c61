package network

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

func newPeerPair(t *testing.T) (*TCPFabric, *TCPFabric) {
	t.Helper()
	a, err := NewPeerFabric(PeerConfig{Localities: 2, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPeerFabric(PeerConfig{Localities: 2, Self: 1})
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	if err := a.SetPeerAddr(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func payloadFor(msg string) []byte {
	p := GetPayload(len(msg))
	copy(p, msg)
	return p
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPeerFabricExchange(t *testing.T) {
	a, b := newPeerPair(t)
	gotA := make(chan string, 4)
	gotB := make(chan string, 4)
	a.SetHandler(0, func(src int, payload []byte) {
		if src != 1 {
			t.Errorf("a: src = %d, want 1", src)
		}
		gotA <- string(payload)
		PutPayload(payload)
	})
	b.SetHandler(1, func(src int, payload []byte) {
		if src != 0 {
			t.Errorf("b: src = %d, want 0", src)
		}
		gotB <- string(payload)
		PutPayload(payload)
	})
	if err := a.Send(0, 1, payloadFor("hello")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, 0, payloadFor("world")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotB:
		if m != "hello" {
			t.Fatalf("b received %q", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b: no delivery")
	}
	select {
	case m := <-gotA:
		if m != "world" {
			t.Fatalf("a received %q", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a: no delivery")
	}
	if s := a.Stats(); s.MessagesSent != 1 || s.MessagesReceived != 1 {
		t.Fatalf("a stats = %+v", s)
	}
}

func TestPeerFabricSelfSend(t *testing.T) {
	a, err := NewPeerFabric(PeerConfig{Localities: 3, Self: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got := make(chan string, 1)
	a.SetHandler(1, func(src int, payload []byte) {
		got <- string(payload)
		PutPayload(payload)
	})
	if err := a.Send(1, 1, payloadFor("loop")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "loop" {
			t.Fatalf("received %q", m)
		}
	case <-time.After(time.Second):
		t.Fatal("no self delivery")
	}
}

func TestPeerFabricUnreachable(t *testing.T) {
	a, err := NewPeerFabric(PeerConfig{Localities: 3, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// No address installed for peer 1.
	if err := a.Send(0, 1, payloadFor("x")); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("no-address send error = %v, want ErrPeerUnreachable", err)
	}
	// An installed but dead address: bind a listener, close it, use its port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	if err := a.SetPeerAddr(2, dead); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(0, 2, payloadFor("y")); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("dead-address send error = %v, want ErrPeerUnreachable", err)
	}
	// Wrong source locality is a caller bug, not unreachability.
	if err := a.Send(1, 0, payloadFor("z")); !errors.Is(err, ErrBadLocality) {
		t.Fatalf("foreign-src send error = %v, want ErrBadLocality", err)
	}
}

func TestPeerFabricBadHandshakeRejected(t *testing.T) {
	a, err := NewPeerFabric(PeerConfig{Localities: 2, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	delivered := make(chan struct{}, 1)
	a.SetHandler(0, func(src int, payload []byte) {
		delivered <- struct{}{}
		PutPayload(payload)
	})

	// Garbage hello.
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte("not a hello, definitely"))
	waitFor(t, 2*time.Second, func() bool { return a.BadHandshakes() >= 1 }, "garbage hello rejection")
	_ = c.Close()

	// Valid hello, then a frame claiming a different source locality.
	c2, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var hello [helloSize]byte
	hello[0] = helloMagic
	hello[1] = helloVersion
	binary.LittleEndian.PutUint32(hello[2:6], 1) // we are peer 1
	binary.LittleEndian.PutUint32(hello[6:10], 2)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0) // ...claiming frames from 0
	binary.LittleEndian.PutUint32(hdr[4:8], 3)
	_, _ = c2.Write(append(append(hello[:], hdr[:]...), 'a', 'b', 'c'))
	waitFor(t, 2*time.Second, func() bool { return a.BadHandshakes() >= 2 }, "spoofed-source rejection")
	select {
	case <-delivered:
		t.Fatal("spoofed frame was delivered")
	default:
	}
}

// TestTCPFabricStrayConnectionRejected: the in-process constructor's
// listeners are loopback ports anything on the machine can connect to, and
// they hold a stray or corrupt stream to the same checks: no hello, no
// frames; and no length read off a socket is believed beyond maxPeerFrame —
// a header asking for 4 GiB drops the connection before a buffer is sized
// by it.
func TestTCPFabricStrayConnectionRejected(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	delivered := make(chan struct{}, 1)
	f.SetHandler(1, func(src int, payload []byte) {
		delivered <- struct{}{}
		PutPayload(payload)
	})

	// No hello: what would have parsed as a frame header is refused.
	c, err := net.Dial("tcp", f.PeerAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _ = c.Write([]byte("\x00\x00\x00\x00\x03\x00\x00\x00abc, a frame from 0"))
	waitFor(t, 2*time.Second, func() bool { return f.BadHandshakes() >= 1 }, "no-hello rejection")

	// Valid hello from locality 0, then a header claiming a 4 GiB payload.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c2, err := net.Dial("tcp", f.PeerAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	hello := [helloSize]byte{helloMagic, helloVersion}
	binary.LittleEndian.PutUint32(hello[2:6], 0)
	binary.LittleEndian.PutUint32(hello[6:10], 2)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xFFFFFFFF)
	_, _ = c2.Write(append(hello[:], hdr[:]...))
	waitFor(t, 2*time.Second, func() bool { return f.BadHandshakes() >= 2 }, "oversize-frame rejection")
	_ = c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(hdr[:]); err != io.EOF {
		t.Errorf("read on the rejected connection = %v, want EOF (dropped)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxPeerFrame {
		t.Errorf("%d bytes allocated while rejecting the frame: its length was believed", grew)
	}
	select {
	case <-delivered:
		t.Fatal("a frame from a rejected connection was delivered")
	default:
	}
}

// TestPeerFabricSetHandlerNotHosted: a handler for a locality another
// process hosts would never be called; registering one is a wiring bug.
func TestPeerFabricSetHandlerNotHosted(t *testing.T) {
	a, err := NewPeerFabric(PeerConfig{Localities: 2, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Error("SetHandler for a locality hosted elsewhere did not panic")
		}
	}()
	a.SetHandler(1, func(int, []byte) {})
}

func TestPeerFabricCloseWithLingeringDialer(t *testing.T) {
	a, err := NewPeerFabric(PeerConfig{Localities: 2, Self: 0})
	if err != nil {
		t.Fatal(err)
	}
	// A remote dialer that handshakes and then goes silent without ever
	// closing: Close must still return (it owns the accepted conn).
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hello [helloSize]byte
	hello[0] = helloMagic
	hello[1] = helloVersion
	binary.LittleEndian.PutUint32(hello[2:6], 1)
	binary.LittleEndian.PutUint32(hello[6:10], 2)
	if _, err := c.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the serve goroutine start
	done := make(chan struct{})
	go func() { _ = a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a lingering accepted connection")
	}
}
