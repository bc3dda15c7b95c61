package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/network"
)

// gatedFabric is a SimFabric whose FailPeer (gated "fail") or ReopenPeer
// (gated "reopen") blocks until release is closed, holding a transition
// part-way through its fan-out: the layers before the transport have
// changed, the ones after it have not.
type gatedFabric struct {
	*network.SimFabric
	gated   string
	entered chan struct{}
	release chan struct{}
}

func newGatedFabric(t *testing.T, n int, gated string) *gatedFabric {
	f := &gatedFabric{
		SimFabric: network.NewSimFabric(n, fastModel()),
		gated:     gated,
		entered:   make(chan struct{}, 1),
		release:   make(chan struct{}),
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func (f *gatedFabric) FailPeer(peer int)   { f.hold("fail") }
func (f *gatedFabric) ReopenPeer(peer int) { f.hold("reopen") }

func (f *gatedFabric) hold(op string) {
	if op != f.gated {
		return
	}
	select {
	case f.entered <- struct{}{}:
	default:
	}
	<-f.release
}

func newGatedRuntime(t *testing.T, fab *gatedFabric) *Runtime {
	rt := New(Config{Localities: 3, WorkersPerLocality: 1, Fabric: fab})
	t.Cleanup(rt.Shutdown)
	rt.MustRegisterAction("life/echo", func(ctx *Context, args []byte) ([]byte, error) {
		return args, nil
	})
	return rt
}

// goDone runs fn on its own goroutine and returns a channel closed when
// it returns.
func goDone(fn func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

func waitDone(t *testing.T, what string, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// assertLife checks that every layer agrees on whether peer is down:
// routing (LocalityDead), AGAS, and every other locality's port. A live
// peer must also answer a round trip.
func assertLife(t *testing.T, rt *Runtime, peer int, down bool) {
	t.Helper()
	if got := rt.LocalityDead(peer); got != down {
		t.Errorf("LocalityDead(%d) = %v, want %v", peer, got, down)
	}
	_, err := rt.AGAS().Resolve(rt.Locality(peer).GID())
	if got := errors.Is(err, network.ErrLocalityDown); got != down {
		t.Errorf("AGAS says locality %d down = %v (%v), want %v", peer, got, err, down)
	}
	for i := 0; i < rt.Localities(); i++ {
		if i == peer {
			continue
		}
		if got := rt.Locality(i).Port().DestDown(peer); got != down {
			t.Errorf("port %d has destination %d failed = %v, want %v", i, peer, got, down)
		}
	}
	if down || t.Failed() {
		return
	}
	fut, err := rt.Locality(0).Async(peer, "life/echo", []byte("hi"))
	if err != nil {
		t.Fatalf("Async(%d) after the transitions: %v", peer, err)
	}
	if v, err := fut.GetWithTimeout(5 * time.Second); err != nil || string(v) != "hi" {
		t.Fatalf("round trip to %d = %q, %v", peer, v, err)
	}
}

// TestUpDuringDownEndsUp: a DeclareUp issued while a DeclareDown is
// part-way through its fan-out runs after it, so the peer ends up in
// every layer. Unserialized, the Down's remaining steps failed the ports
// after the Up had reopened them: LocalityDead false, every Async failing
// with ErrLocalityDown, and no later DeclareUp able to repair it.
func TestUpDuringDownEndsUp(t *testing.T) {
	fab := newGatedFabric(t, 3, "fail")
	rt := newGatedRuntime(t, fab)

	down := goDone(func() { rt.DeclareDown(1) })
	<-fab.entered
	up := goDone(func() { rt.DeclareUp(1) })
	select {
	case <-up:
	case <-time.After(50 * time.Millisecond): // a serialized Up waits for the Down
	}
	close(fab.release)
	waitDone(t, "DeclareDown", down)
	waitDone(t, "DeclareUp", up)
	assertLife(t, rt, 1, false)
}

// TestDownDuringUpEndsDown is the mirror case: a DeclareDown issued while
// a DeclareUp is part-way through runs after it, so the peer ends down in
// every layer, not down for routing while AGAS and the ports say up.
func TestDownDuringUpEndsDown(t *testing.T) {
	fab := newGatedFabric(t, 3, "reopen")
	rt := newGatedRuntime(t, fab)
	rt.DeclareDown(1)

	up := goDone(func() { rt.DeclareUp(1) })
	<-fab.entered
	down := goDone(func() { rt.DeclareDown(1) })
	select {
	case <-down:
	case <-time.After(50 * time.Millisecond): // a serialized Down waits for the Up
	}
	close(fab.release)
	waitDone(t, "DeclareUp", up)
	waitDone(t, "DeclareDown", down)
	assertLife(t, rt, 1, true)
}

// TestPeerEventsInTransitionOrder: subscribers see a conviction's verdict
// before its down, and the down before an up that was declared while the
// down was still failing layers, each event in registration order.
func TestPeerEventsInTransitionOrder(t *testing.T) {
	fab := newGatedFabric(t, 3, "fail")
	rt := newGatedRuntime(t, fab)
	type seen struct {
		sub int
		ev  PeerEvent
	}
	var mu sync.Mutex
	var log []seen
	for sub := 0; sub < 2; sub++ {
		rt.SubscribePeer(func(ev PeerEvent) {
			mu.Lock()
			log = append(log, seen{sub, ev})
			mu.Unlock()
		})
	}

	down := goDone(func() { rt.convict(0, 1) })
	<-fab.entered
	up := goDone(func() { rt.DeclareUp(1) })
	time.Sleep(20 * time.Millisecond) // let the Up reach the lock; the order holds either way
	close(fab.release)
	waitDone(t, "conviction", down)
	waitDone(t, "DeclareUp", up)

	verdict := PeerEvent{Kind: PeerVerdict, Observer: 0, Peer: 1}
	dead := PeerEvent{Kind: PeerDown, Observer: 0, Peer: 1}
	alive := PeerEvent{Kind: PeerUp, Observer: -1, Peer: 1}
	want := []seen{{0, verdict}, {1, verdict}, {0, dead}, {1, dead}, {0, alive}, {1, alive}}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != len(want) {
		t.Fatalf("events = %+v, want %+v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("events = %+v, want %+v", log, want)
		}
	}
	assertLife(t, rt, 1, false)
}

// TestSubscriberMayDeclareAnotherPeerDown: transitions are serialized per
// peer, so a subscriber may start a transition of a different peer from
// inside an event without deadlocking.
func TestSubscriberMayDeclareAnotherPeerDown(t *testing.T) {
	fab := newGatedFabric(t, 3, "none")
	rt := newGatedRuntime(t, fab)
	rt.SubscribePeer(func(ev PeerEvent) {
		if ev.Kind == PeerDown && ev.Peer == 1 {
			rt.DeclareDown(2)
		}
	})
	waitDone(t, "DeclareDown", goDone(func() { rt.DeclareDown(1) }))
	assertLife(t, rt, 1, true)
	assertLife(t, rt, 2, true)
}
