package reliable_test

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/runtime"
)

// TestChaosExactlyOnceUnderLossReorder is the acceptance chaos run: a toy
// application on two localities with coalescing enabled, sending parcels
// over a reliable fabric whose inner wire drops 5%, reorders 5% and
// duplicates 2% of frames. Every parcel must arrive exactly once, Drain
// must terminate, and the retransmit/dedup counters must be nonzero and
// consistent with the injected faults.
func TestChaosExactlyOnceUnderLossReorder(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{Latency: 5 * time.Microsecond})
	plan := network.NewFaultPlan(42)
	plan.SetDefault(network.LinkFaults{
		DropRate:      0.05,
		ReorderRate:   0.05,
		DuplicateRate: 0.02,
	})
	inner.SetFaultHook(plan.Hook())
	rel := reliable.New(inner, reliable.Config{
		RTO:      2 * time.Millisecond,
		AckDelay: 200 * time.Microsecond,
		Tick:     100 * time.Microsecond,
	})
	rt := runtime.New(runtime.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Fabric:             rel,
	})
	defer func() {
		rt.Shutdown()
		rel.Close()
	}()

	var delivered atomic.Int64
	var sum atomic.Int64
	rt.MustRegisterAction("chaos/echo", func(ctx *runtime.Context, args []byte) ([]byte, error) {
		delivered.Add(1)
		sum.Add(int64(binary.LittleEndian.Uint32(args)))
		return nil, nil
	})
	if err := rt.EnableCoalescing("chaos/echo", coalescing.Params{
		NParcels: 8,
		Interval: 100 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}

	const n = 1500
	var wantSum int64
	loc0 := rt.Locality(0)
	for i := 0; i < n; i++ {
		args := make([]byte, 4)
		binary.LittleEndian.PutUint32(args, uint32(i))
		wantSum += int64(i)
		if err := loc0.Apply(1, "chaos/echo", args); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && delivered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got < n {
		t.Fatalf("only %d of %d parcels delivered before deadline", got, n)
	}
	if !loc0.Port().Drain(5 * time.Second) {
		t.Fatal("Port.Drain did not terminate under injected loss")
	}
	// Settle, then check exactly-once: no duplicate action executions.
	time.Sleep(20 * time.Millisecond)
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d parcels, want exactly %d (duplicates leaked)", got, n)
	}
	if got := sum.Load(); got != wantSum {
		t.Fatalf("argument checksum %d, want %d", got, wantSum)
	}

	st := rel.ReliabilityStats()
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; chaos run was vacuous")
	}
	if st.Retransmits == 0 {
		t.Error("no retransmissions recorded despite injected drops")
	}
	if st.DuplicatesSuppressed == 0 {
		t.Error("no duplicates suppressed despite injected duplication/reorder")
	}
	t.Logf("chaos: injected=%d retransmits=%d dup-suppressed=%d acks=%d",
		plan.Injected(), st.Retransmits, st.DuplicatesSuppressed, st.AcksSent)
}

// TestChaosLinkDownOnPartition verifies the bounded retry budget: a
// one-way partition on link 0->1 must surface ErrLinkDown to senders
// within the configured deadline instead of hanging forever.
func TestChaosLinkDownOnPartition(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	plan := network.NewFaultPlan(7)
	plan.SetLink(0, 1, network.LinkFaults{Partition: true})
	inner.SetFaultHook(plan.Hook())
	rel := reliable.New(inner, reliable.Config{
		RTO:        500 * time.Microsecond,
		RTOMax:     2 * time.Millisecond,
		MaxRetries: 4,
		Tick:       100 * time.Microsecond,
	})
	defer rel.Close()
	rel.SetHandler(0, func(int, []byte) {})
	rel.SetHandler(1, func(int, []byte) {})

	start := time.Now()
	b := network.GetPayload(8)
	if err := rel.Send(0, 1, b); err != nil {
		t.Fatal(err)
	}

	// Retry budget: 4 retries at 0.5/1/2/2 ms backoff ≈ 5.5ms worst case;
	// allow a generous multiple for scheduling noise.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !rel.LinkDown(0, 1) {
		time.Sleep(200 * time.Microsecond)
	}
	if !rel.LinkDown(0, 1) {
		t.Fatal("partitioned link never declared down")
	}
	t.Logf("link down after %v", time.Since(start))
	if st := rel.ReliabilityStats(); st.LinkDowns == 0 {
		t.Error("link-down counter not incremented")
	}

	// Subsequent sends fail fast with ErrLinkDown; the caller keeps
	// ownership of the payload on error.
	b2 := network.GetPayload(8)
	err := rel.Send(0, 1, b2)
	if !errors.Is(err, network.ErrLinkDown) {
		t.Fatalf("Send on downed link = %v, want ErrLinkDown", err)
	}
	network.PutPayload(b2)

	// The healthy reverse link is unaffected.
	got := make(chan struct{}, 1)
	rel.SetHandler(0, func(src int, payload []byte) {
		network.PutPayload(payload)
		select {
		case got <- struct{}{}:
		default:
		}
	})
	if err := rel.Send(1, 0, network.GetPayload(8)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("reverse link delivery failed after forward link went down")
	}
}

// TestChaosLinkDownFailsFastThroughPort verifies the degradation path end
// to end: when the reliable layer declares a link down, parcel sends to
// that destination error out promptly, the port's link-down counter
// advances, and Drain still terminates.
func TestChaosLinkDownFailsFastThroughPort(t *testing.T) {
	inner := network.NewSimFabric(2, network.CostModel{})
	plan := network.NewFaultPlan(11)
	plan.SetLink(0, 1, network.LinkFaults{Partition: true})
	inner.SetFaultHook(plan.Hook())
	rel := reliable.New(inner, reliable.Config{
		RTO:        500 * time.Microsecond,
		RTOMax:     2 * time.Millisecond,
		MaxRetries: 3,
		Tick:       100 * time.Microsecond,
	})
	rt := runtime.New(runtime.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Fabric:             rel,
	})
	defer func() {
		rt.Shutdown()
		rel.Close()
	}()
	rt.MustRegisterAction("chaos/blackhole", func(ctx *runtime.Context, args []byte) ([]byte, error) {
		return nil, nil
	})

	loc0 := rt.Locality(0)
	// First parcel commits to the partitioned link and burns the retry
	// budget in the background.
	if err := loc0.Apply(1, "chaos/blackhole", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !rel.LinkDown(0, 1) {
		time.Sleep(time.Millisecond)
	}
	if !rel.LinkDown(0, 1) {
		t.Fatal("partitioned link never declared down")
	}

	// Later parcels hit ErrLinkDown at transmit time; the port must count
	// the failure and keep draining rather than hang.
	for i := 0; i < 4; i++ {
		_ = loc0.Apply(1, "chaos/blackhole", []byte{2})
	}
	if !loc0.Port().Drain(5 * time.Second) {
		t.Fatal("Drain hung on a downed link")
	}
	if got := loc0.Port().Stats().LinkDown; got == 0 {
		t.Error("port link-down counter not incremented")
	}
}
