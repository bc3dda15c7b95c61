package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/network"
)

// fastHealth is a detector configuration with millisecond horizons so
// crash tests detect in tens of milliseconds instead of seconds.
func fastHealth() health.Config {
	return health.Config{
		Enabled:           true,
		HeartbeatInterval: 2 * time.Millisecond,
		Tick:              500 * time.Microsecond,
		PhiThreshold:      8,
		Grace:             20 * time.Millisecond,
	}
}

// crashRig is a runtime over a fault-injectable fabric.
type crashRig struct {
	rt   *Runtime
	plan *network.FaultPlan
}

func newCrashRig(t *testing.T, localities int) *crashRig {
	t.Helper()
	fab := network.NewSimFabric(localities, fastModel())
	plan := network.NewFaultPlan(1)
	fab.SetFaultHook(plan.Hook())
	rt := New(Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Fabric:             fab,
		Health:             fastHealth(),
	})
	t.Cleanup(func() {
		rt.Shutdown()
		fab.Close()
	})
	return &crashRig{rt: rt, plan: plan}
}

// crash kills a locality: wire first, then the runtime-side silencer —
// the same order the taskbench injector uses.
func (r *crashRig) crash(loc int) {
	r.plan.Crash(loc)
	r.rt.CrashLocality(loc)
}

func waitDead(t *testing.T, rt *Runtime, loc int, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for time.Now().Before(deadline) {
		if rt.LocalityDead(loc) {
			return time.Since(start)
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("locality %d not declared dead within %v (phi from 0: %.2f)",
		loc, within, rt.Monitor(0).Phi(loc))
	return 0
}

func TestHealthDetectsCrashAndPoisonsFutures(t *testing.T) {
	rig := newCrashRig(t, 3)
	rt := rig.rt

	block := make(chan struct{})
	rt.MustRegisterAction("health/block", func(ctx *Context, args []byte) ([]byte, error) {
		<-block
		return []byte("late"), nil
	})
	defer close(block)

	// A future whose result is stuck on locality 2, which then dies.
	fut, err := rt.Locality(0).Async(2, "health/block", nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the request reach locality 2
	rig.crash(2)

	lat := waitDead(t, rt, 2, 10*time.Second)
	t.Logf("detection latency: %v", lat)

	// The pending future must resolve with ErrLocalityDown promptly —
	// never hang.
	if _, err := fut.GetWithTimeout(5 * time.Second); !errors.Is(err, network.ErrLocalityDown) {
		t.Fatalf("poisoned future error = %v, want ErrLocalityDown", err)
	}

	// Graceful degradation: AGAS, Async and Apply all fail fast now.
	if _, err := rt.AGAS().Resolve(rt.Locality(2).GID()); !errors.Is(err, network.ErrLocalityDown) {
		t.Errorf("AGAS resolve to dead locality = %v, want ErrLocalityDown", err)
	}
	if _, err := rt.Locality(0).Async(2, "health/block", nil); !errors.Is(err, network.ErrLocalityDown) {
		t.Errorf("Async to dead locality = %v, want ErrLocalityDown", err)
	}
	if err := rt.Locality(1).Apply(2, "health/block", nil); !errors.Is(err, network.ErrLocalityDown) {
		t.Errorf("Apply to dead locality = %v, want ErrLocalityDown", err)
	}

	// Survivors keep working.
	rt.MustRegisterAction("health/echo", func(ctx *Context, args []byte) ([]byte, error) {
		return args, nil
	})
	ok, err := rt.Locality(0).Async(1, "health/echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ok.GetWithTimeout(5 * time.Second); err != nil || string(v) != "x" {
		t.Fatalf("survivor round trip = %q, %v", v, err)
	}
	if !rt.Monitor(0).Suspected(2) || !rt.Monitor(1).Suspected(2) {
		t.Error("survivor monitors do not both suspect the dead locality")
	}
}

func TestHealthRetryableActionReroutes(t *testing.T) {
	rig := newCrashRig(t, 3)
	rt := rig.rt

	var executedOn atomic.Int64
	executedOn.Store(-1)
	gate := make(chan struct{})
	rt.MustRegisterAction("health/idempotent", func(ctx *Context, args []byte) ([]byte, error) {
		if ctx.Locality == 2 {
			<-gate // the doomed locality never answers
			return nil, nil
		}
		executedOn.Store(int64(ctx.Locality))
		return []byte("done"), nil
	})
	defer close(gate)
	rt.SetRetryable("health/idempotent", true)

	fut, err := rt.Locality(0).Async(2, "health/idempotent", nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	rig.crash(2)
	waitDead(t, rt, 2, 10*time.Second)

	v, err := fut.GetWithTimeout(10 * time.Second)
	if err != nil {
		t.Fatalf("retryable future failed: %v", err)
	}
	if string(v) != "done" {
		t.Fatalf("retryable future value = %q, want \"done\"", v)
	}
	if on := executedOn.Load(); on == 2 || on < 0 {
		t.Fatalf("retry executed on locality %d, want a survivor", on)
	}
	var retried int64
	for i := 0; i < 3; i++ {
		if i == 2 {
			continue
		}
		retried += rt.Locality(i).contsRetried.Get()
	}
	if retried == 0 {
		t.Error("conts-retried counter did not advance")
	}
}

func TestHealthDeathSubscriberAndNoFalsePositives(t *testing.T) {
	rig := newCrashRig(t, 3)
	rt := rig.rt

	var notified atomic.Int64
	notified.Store(-1)
	rt.SubscribePeer(func(ev PeerEvent) {
		if ev.Kind == PeerDown {
			notified.Store(int64(ev.Peer))
		}
	})

	// Soak with no crash: no locality may be declared dead.
	time.Sleep(300 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if rt.LocalityDead(i) {
			t.Fatalf("false positive: locality %d declared dead with no crash", i)
		}
	}
	suspicions := int64(0)
	for i := 0; i < 3; i++ {
		suspicions += rt.Monitor(i).Suspicions()
	}
	if suspicions != 0 {
		t.Fatalf("false positives: %d suspicions during idle soak", suspicions)
	}

	rig.crash(1)
	// convict marks the peer dead before it publishes PeerDown, so the
	// subscriber gets the rest of the same budget to see the event.
	deadline := time.Now().Add(10 * time.Second)
	waitDead(t, rt, 1, 10*time.Second)
	for notified.Load() == -1 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if got := notified.Load(); got != 1 {
		t.Fatalf("death subscriber saw peer %d, want 1", got)
	}
}
