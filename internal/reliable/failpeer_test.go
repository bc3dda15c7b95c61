package reliable_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/trace"
)

// TestFailPeerFailsLinksFast verifies the failure-detector degradation
// hook: FailPeer must immediately error Sends touching the dead peer with
// ErrLocalityDown, discard its pending retransmission window (no retry
// budget burned against a corpse), and leave survivor links untouched.
func TestFailPeerFailsLinksFast(t *testing.T) {
	inner := network.NewSimFabric(3, network.CostModel{})
	plan := network.NewFaultPlan(3)
	inner.SetFaultHook(plan.Hook())
	rel := reliable.New(inner, reliable.Config{
		RTO:  time.Millisecond,
		Tick: 100 * time.Microsecond,
	})
	defer rel.Close()
	for i := 0; i < 3; i++ {
		rel.SetHandler(i, func(_ int, payload []byte) { network.PutPayload(payload) })
	}

	// Crash locality 1 at the wire, queue a frame toward it so the window
	// is non-empty, then declare it dead.
	plan.Crash(1)
	if err := rel.Send(0, 1, network.GetPayload(8)); err != nil {
		t.Fatal(err)
	}
	if rel.PeerDown(1) {
		t.Fatal("PeerDown before FailPeer")
	}
	rel.FailPeer(1)
	if !rel.PeerDown(1) {
		t.Fatal("PeerDown = false after FailPeer")
	}
	if got := rel.Pending(); got != 0 {
		t.Errorf("Pending() = %d after FailPeer, want 0 (window discarded)", got)
	}

	if err := rel.Send(0, 1, network.GetPayload(8)); !errors.Is(err, network.ErrLocalityDown) {
		t.Fatalf("Send to dead peer = %v, want ErrLocalityDown", err)
	}
	if err := rel.Send(1, 0, network.GetPayload(8)); !errors.Is(err, network.ErrLocalityDown) {
		t.Fatalf("Send from dead peer = %v, want ErrLocalityDown", err)
	}

	// Survivor traffic is unaffected.
	got := make(chan struct{}, 1)
	rel.SetHandler(2, func(_ int, payload []byte) {
		network.PutPayload(payload)
		select {
		case got <- struct{}{}:
		default:
		}
	})
	if err := rel.Send(0, 2, network.GetPayload(8)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("survivor link 0->2 stopped delivering after FailPeer(1)")
	}
}

// TestLinkDownSurfacesOnReceiver verifies that retry-budget exhaustion is
// observable from both ends of the link: the sender's link-down counter
// and the receiver's link-down-remote counter both advance, and the trace
// records a KindLinkDown event at each locality.
func TestLinkDownSurfacesOnReceiver(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	plan := network.NewFaultPlan(7)
	plan.SetLink(0, 1, network.LinkFaults{Partition: true})
	inner.SetFaultHook(plan.Hook())
	tb := trace.New(64)
	rel := reliable.New(inner, reliable.Config{
		RTO:        500 * time.Microsecond,
		RTOMax:     2 * time.Millisecond,
		MaxRetries: 3,
		Tick:       100 * time.Microsecond,
	})
	defer rel.Close()
	rel.Attach(counters.NewRegistry(), tb)
	rel.SetHandler(0, func(_ int, p []byte) { network.PutPayload(p) })
	rel.SetHandler(1, func(_ int, p []byte) { network.PutPayload(p) })

	if err := rel.Send(0, 1, network.GetPayload(8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !rel.LinkDown(0, 1) {
		time.Sleep(200 * time.Microsecond)
	}
	st := rel.ReliabilityStats()
	if st.LinkDowns != 1 {
		t.Fatalf("LinkDowns = %d, want 1", st.LinkDowns)
	}
	if st.LinkDownsRemote != 1 {
		t.Fatalf("LinkDownsRemote = %d, want 1", st.LinkDownsRemote)
	}
	var atSender, atReceiver bool
	for _, e := range tb.Events(trace.KindLinkDown) {
		switch {
		case e.Name == "link-down" && e.Locality == 0 && e.Arg == 1:
			atSender = true
		case e.Name == "link-down-remote" && e.Locality == 1 && e.Arg == 0:
			atReceiver = true
		}
	}
	if !atSender || !atReceiver {
		t.Fatalf("trace events: sender=%v receiver=%v, want both", atSender, atReceiver)
	}
}
