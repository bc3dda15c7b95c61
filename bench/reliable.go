package bench

import (
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/runtime"
)

// ReliableChaos measures end-to-end goodput of a coalescing toy app over
// the reliable-delivery layer while the inner wire drops lossPct percent
// of frames (with proportional reorder and duplication). Each benchmark
// iteration sends one batch of parcels and waits until every one has been
// executed exactly once on the remote locality, so ns/op is the full
// delivery latency including retransmission stalls. Reported metrics:
//
//	parcels/sec       goodput (delivered parcels per wall second)
//	network-overhead  Eq. 4 over the measured interval
//	retransmits/op    reliability-layer retransmissions per batch
//	dups/op           duplicate frames suppressed per batch
func ReliableChaos(b *testing.B, lossPct float64) {
	const batch = 500
	inner := network.NewSimFabric(2, network.CostModel{Latency: 5 * time.Microsecond})
	var plan *network.FaultPlan
	if lossPct > 0 {
		plan = network.NewFaultPlan(1)
		plan.SetDefault(network.LinkFaults{
			DropRate:      lossPct / 100,
			ReorderRate:   lossPct / 200,
			DuplicateRate: lossPct / 500,
		})
		inner.SetFaultHook(plan.Hook())
	}
	rel := reliable.New(inner, reliable.Config{
		// The host timer granularity is ~1ms, so a smaller RTO would
		// mostly measure spurious retransmission.
		RTO:      5 * time.Millisecond,
		AckDelay: 500 * time.Microsecond,
		Tick:     250 * time.Microsecond,
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
	rt.MustRegisterAction("bench/reliable-echo", func(ctx *runtime.Context, args []byte) ([]byte, error) {
		delivered.Add(1)
		return nil, nil
	})
	if err := rt.EnableCoalescing("bench/reliable-echo", coalescing.Params{
		NParcels: 16,
		Interval: 200 * time.Microsecond,
	}); err != nil {
		b.Fatal(err)
	}

	loc0 := rt.Locality(0)
	args := make([]byte, 32)
	before := metrics.Snapshot(rt)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		target := delivered.Load() + batch
		for j := 0; j < batch; j++ {
			binary.LittleEndian.PutUint32(args, uint32(j))
			if err := loc0.Apply(1, "bench/reliable-echo", args); err != nil {
				b.Fatal(err)
			}
		}
		for delivered.Load() < target {
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	after := metrics.Snapshot(rt)

	if got, want := delivered.Load(), int64(batch*b.N); got != want {
		b.Fatalf("delivered %d parcels, want exactly %d", got, want)
	}
	st := rel.ReliabilityStats()
	b.ReportMetric(float64(batch*b.N)/elapsed.Seconds(), "parcels/sec")
	bg := after.BackgroundWork - before.BackgroundWork
	busy := (after.TaskDuration - before.TaskDuration) + bg
	if busy > 0 {
		b.ReportMetric(float64(bg)/float64(busy), "network-overhead")
	}
	b.ReportMetric(float64(st.Retransmits)/float64(b.N), "retransmits/op")
	b.ReportMetric(float64(st.DuplicatesSuppressed)/float64(b.N), "dups/op")
}

// ReliableBenchName names one chaos measurement by its loss percentage.
func ReliableBenchName(lossPct float64) string {
	return fmt.Sprintf("loss=%g%%", lossPct)
}

// ReliableLinkDownDetection measures how quickly a fully partitioned link
// is declared down: each iteration builds a fresh reliable fabric over a
// partitioned SimFabric, sends one frame, and waits for the retry budget
// to exhaust. ns/op is therefore the failure-detection latency for the
// configured budget (4 retries from a 500µs RTO).
func ReliableLinkDownDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inner := network.NewSimFabric(2, network.CostModel{})
		plan := network.NewFaultPlan(int64(i + 1))
		plan.SetLink(0, 1, network.LinkFaults{Partition: true})
		inner.SetFaultHook(plan.Hook())
		rel := reliable.New(inner, reliable.Config{
			RTO:        500 * time.Microsecond,
			RTOMax:     2 * time.Millisecond,
			MaxRetries: 4,
			Tick:       100 * time.Microsecond,
		})
		rel.SetHandler(0, func(_ int, p []byte) { network.PutPayload(p) })
		rel.SetHandler(1, func(_ int, p []byte) { network.PutPayload(p) })
		if err := rel.Send(0, 1, network.GetPayload(64)); err != nil {
			b.Fatal(err)
		}
		for !rel.LinkDown(0, 1) {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		rel.Close()
		b.StartTimer()
	}
}

// loopFabric hands every frame to the destination's handler on the
// sender's goroutine, so a round through reliable.Fabric costs what the
// layer costs and nothing else.
type loopFabric struct {
	handlers []atomic.Pointer[network.Handler]
}

func (f *loopFabric) Send(src, dst int, payload []byte) error {
	if h := f.handlers[dst].Load(); h != nil {
		(*h)(src, payload)
	} else {
		network.PutPayload(payload)
	}
	return nil
}
func (f *loopFabric) SetHandler(dst int, h network.Handler) { f.handlers[dst].Store(&h) }
func (f *loopFabric) Localities() int                       { return len(f.handlers) }
func (f *loopFabric) Model() network.CostModel              { return network.CostModel{} }
func (f *loopFabric) Stats() network.Stats                  { return network.Stats{} }
func (f *loopFabric) Close() error                          { return nil }

func newLoopReliable() *reliable.Fabric {
	rel := reliable.New(&loopFabric{handlers: make([]atomic.Pointer[network.Handler], 2)}, reliable.Config{})
	for l := 0; l < 2; l++ {
		rel.SetHandler(l, func(_ int, p []byte) { network.PutPayload(p) })
	}
	return rel
}

// ReliableSendAck measures one message through the reliable layer in
// steady state on a one-way link: Send (framing, window entry), delivery
// (resequencer, handler copy), the scanner's standalone ACK, and the
// window release it causes. At most 256 frames stay unacknowledged, as a
// port paced by its socket would keep them; the wait for the ACK is part
// of the figure, so read allocs/op here, not ns/op.
func ReliableSendAck(b *testing.B) {
	rel := newLoopReliable()
	defer rel.Close()
	send := func(n int) {
		for i := 0; i < n; i++ {
			for rel.Pending() >= 256 {
				goruntime.Gosched()
			}
			if err := rel.Send(0, 1, network.GetPayload(512)); err != nil {
				b.Fatal(err)
			}
		}
	}
	send(2048) // grow the window ring, warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}

// ReliableLargeTCP measures a 64 KiB message's whole life over loopback
// TCP: Send (trailer appended in place, window entry), the socket write
// from the window's own buffer, the socket read into the buffer the
// handler is handed, the standalone ACK and the window release. The
// payload has the spare capacity the port leaves behind a bundle
// (network.FrameSlack). At most 24 frames stay unacknowledged — fewer than
// the 128 KiB pool class has slots, so a steady state that allocates shows
// as B/op — and ACKs come every 100 µs so that the window, not the ACK
// cadence, is what the sender waits for: ns/op is then CPU per message on
// both sides of the socket.
func ReliableLargeTCP(b *testing.B) {
	const size, window = 64 << 10, 24
	tcp, err := network.NewTCPFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	rel := reliable.New(tcp, reliable.Config{AckDelay: 100 * time.Microsecond, Tick: 100 * time.Microsecond})
	defer rel.Close()
	for l := 0; l < 2; l++ {
		rel.SetHandler(l, func(_ int, p []byte) { network.PutPayload(p) })
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			for rel.Pending() >= window {
				goruntime.Gosched()
			}
			if err := rel.Send(0, 1, network.GetPayload(size + network.FrameSlack)[:size]); err != nil {
				b.Fatal(err)
			}
		}
		for rel.Pending() > 0 {
			goruntime.Gosched()
		}
	}
	send(512) // dial, grow the window ring, warm the pools
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}

// ReliableIdleSweep measures the scanner on established but idle links:
// each iteration sleeps through one scanner tick, so any allocation the
// tick makes shows as allocs/op.
func ReliableIdleSweep(b *testing.B) {
	rel := newLoopReliable()
	defer rel.Close()
	for l := 0; l < 2; l++ {
		if err := rel.Send(l, 1-l, network.GetPayload(64)); err != nil {
			b.Fatal(err)
		}
	}
	for rel.Pending() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(250 * time.Microsecond) // reliable.Config's default Tick
	}
}
