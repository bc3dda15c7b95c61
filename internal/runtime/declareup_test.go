package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/reliable"
)

// TestDeclareUpRestoresService drives the full degradation stack down
// and back up: DeclareDown must fail traffic to the peer fast, and
// DeclareUp must restore AGAS resolution, port acceptance, reliable
// links (fresh session epoch) and detector state so round trips to the
// revived peer succeed and no monitor re-convicts it on stale silence.
func TestDeclareUpRestoresService(t *testing.T) {
	inner := network.NewSimFabric(3, fastModel())
	rel := reliable.New(inner, reliable.Config{
		RTO:  2 * time.Millisecond,
		Tick: 200 * time.Microsecond,
	})
	rt := New(Config{
		Localities:         3,
		WorkersPerLocality: 2,
		Fabric:             rel,
		Health:             fastHealth(),
	})
	t.Cleanup(func() {
		rt.Shutdown()
		rel.Close()
	})
	rt.MustRegisterAction("up/echo", func(ctx *Context, args []byte) ([]byte, error) {
		return args, nil
	})

	var ups atomic.Int64
	rt.SubscribePeer(func(ev PeerEvent) {
		if ev.Kind == PeerUp && ev.Peer == 2 {
			ups.Add(1)
		}
	})

	// Warm the link so pre-down sequence state exists on 0->2.
	fut, err := rt.Locality(0).Async(2, "up/echo", []byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.GetWithTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rt.DeclareDown(2)
	if !rt.LocalityDead(2) {
		t.Fatal("LocalityDead(2) = false after DeclareDown")
	}
	if _, err := rt.Locality(0).Async(2, "up/echo", nil); !errors.Is(err, network.ErrLocalityDown) {
		t.Fatalf("Async to dead locality = %v, want ErrLocalityDown", err)
	}

	rt.DeclareUp(2)
	if rt.LocalityDead(2) {
		t.Fatal("LocalityDead(2) = true after DeclareUp")
	}
	if got := ups.Load(); got != 1 {
		t.Fatalf("up subscriber fired %d times, want 1", got)
	}
	// Idempotent: a second DeclareUp must not re-notify.
	rt.DeclareUp(2)
	if got := ups.Load(); got != 1 {
		t.Fatalf("up subscriber fired %d times after duplicate DeclareUp, want 1", got)
	}

	// Round trips to the revived peer work again — through AGAS, the
	// port and the reopened reliable link.
	fut, err = rt.Locality(0).Async(2, "up/echo", []byte("again"))
	if err != nil {
		t.Fatalf("Async to revived locality: %v", err)
	}
	if v, err := fut.GetWithTimeout(5 * time.Second); err != nil || string(v) != "again" {
		t.Fatalf("revived round trip = %q, %v", v, err)
	}

	// No monitor may re-convict the revived peer: detector state was
	// reset and live traffic resumes. Soak for several grace periods.
	time.Sleep(300 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if rt.LocalityDead(i) {
			t.Fatalf("locality %d declared dead after rejoin soak", i)
		}
	}
}
