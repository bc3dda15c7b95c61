// Package bench holds the micro-benchmark suite for the parcel
// transmission pipeline. The benchmark bodies live here as exported
// functions so they can be driven two ways: by `go test -bench` through
// the thin wrappers in bench_test.go, and by cmd/amc-bench through
// testing.Benchmark to produce the committed BENCH_parcel.json.
//
// The suite covers the three layers the zero-allocation work touched:
// bundle encode/decode (serialization), port enqueue/send (the outbound
// ring plus pooled payload buffers), and coalescer Put under
// increasing sender concurrency (the striped destination queues). The
// encode, decode and port-send benchmarks are the ones the pipeline
// promises 0 allocs/op on.
package bench

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/runtime"
	"repro/internal/timer"
)

// nullFabric is a Fabric that accepts every send and immediately
// recycles the payload, isolating the port's own encode/enqueue cost
// from transport effects. It never delivers, so receive-side work is
// zero.
type nullFabric struct {
	n     int
	sent  int
	bytes int
}

func (f *nullFabric) Send(src, dst int, payload []byte) error {
	f.sent++
	f.bytes += len(payload)
	network.PutPayload(payload)
	return nil
}

func (f *nullFabric) SetHandler(dst int, h network.Handler) {}
func (f *nullFabric) Localities() int                       { return f.n }
func (f *nullFabric) Model() network.CostModel              { return network.CostModel{} }
func (f *nullFabric) Stats() network.Stats {
	return network.Stats{MessagesSent: uint64(f.sent), BytesSent: uint64(f.bytes)}
}
func (f *nullFabric) Close() error { return nil }

// makeParcels builds n distinct parcels with argsLen-byte argument packs
// for destination dst.
func makeParcels(n, dst, argsLen int) []*parcel.Parcel {
	ps := make([]*parcel.Parcel, n)
	args := make([]byte, argsLen)
	for i := range args {
		args[i] = byte(i)
	}
	for i := range ps {
		ps[i] = &parcel.Parcel{
			Dest:         agas.GID(uint64(dst)<<32 | uint64(i)),
			DestLocality: dst,
			Action:       "bench-action",
			Args:         args,
			Source:       0,
		}
	}
	return ps
}

// EncodeBundle measures appending a 16-parcel bundle into a reused
// buffer: the port's transmit-path encoding. Steady state must be
// 0 allocs/op.
func EncodeBundle(b *testing.B) {
	ps := makeParcels(16, 1, 64)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = parcel.AppendBundle(buf[:0], ps)
	}
	if len(buf) == 0 {
		b.Fatal("empty encoding")
	}
	b.SetBytes(int64(len(buf)))
}

// DecodeBundle measures the port's actual receive decoding: a pooled
// wire buffer is borrow-decoded into pooled parcels whose fields alias
// it, then released back (parcels, batch slice and payload all recycle).
// The per-iteration GetPayload+copy stands in for the fabric filling a
// pooled receive buffer. Steady state must be 0 allocs/op — the receive
// mirror of EncodeBundle/PortSend.
func DecodeBundle(b *testing.B) {
	wire := parcel.EncodeBundle(makeParcels(16, 1, 64))
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := network.GetPayload(len(wire))
		copy(buf, wire)
		ps, err := parcel.DecodeBundleBorrowed(buf)
		if err != nil {
			b.Fatal(err)
		}
		parcel.ReleaseBundle(ps)
	}
}

// newBenchPort builds a port on a null fabric with no registry and no
// trace.
func newBenchPort() *parcel.Port {
	return parcel.NewPort(parcel.Config{
		Locality: 0,
		Fabric:   &nullFabric{n: 4},
		Resolve:  func(g agas.GID) (int, error) { return int(uint64(g) >> 32), nil },
		Deliver:  func(p *parcel.Parcel) {},
	})
}

// PortEnqueue measures Put on the direct (no message handler) path: the
// inline cost a sending task pays. The queue is drained outside the
// timed region.
func PortEnqueue(b *testing.B) {
	port := newBenchPort()
	defer port.Close()
	ps := makeParcels(1, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Put(ps[0]); err != nil {
			b.Fatal(err)
		}
		if port.PendingOutbound() >= 4096 {
			b.StopTimer()
			for port.DoBackgroundWork(1024) > 0 {
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	for port.DoBackgroundWork(1024) > 0 {
	}
}

// PortSend measures the full send pipeline — Put, ring dequeue, exact
// sizing, pooled-buffer bundle encoding, fabric handoff, buffer recycle —
// one message per iteration. Steady state must be 0 allocs/op.
func PortSend(b *testing.B) {
	port := newBenchPort()
	defer port.Close()
	ps := makeParcels(1, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Put(ps[0]); err != nil {
			b.Fatal(err)
		}
		if port.DoBackgroundWork(1) != 1 {
			b.Fatal("expected one unit of background work")
		}
	}
}

// TCPSendFrame measures TCPFabric.Send over a loopback connection, one
// 256-byte frame per iteration, with the receiving locality's handler
// recycling every payload. The frame header and the writev vector live
// beside the connection, so the steady state must be 0 allocs/op on the
// send side; the read loop's pooled payloads add none either.
func TCPSendFrame(b *testing.B) {
	f, err := network.NewTCPFabric(2)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var received atomic.Int64
	drained := make(chan struct{})
	f.SetHandler(1, func(src int, payload []byte) {
		network.PutPayload(payload)
		if received.Add(1) == int64(b.N)+1 {
			close(drained)
		}
	})
	send := func() {
		if err := f.Send(0, 1, network.GetPayload(256)); err != nil {
			b.Fatal(err)
		}
	}
	send() // dial, accept and start the read loop outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	<-drained
}

// Modes of PortEnqueueWake.
const (
	// WakeNoHook is a bare port with no scheduler behind it: the cost of
	// EnqueueMessage before the port signalled anyone.
	WakeNoHook = "no-hook"
	// WakeNoneParked is a runtime's port whose locality's only worker is
	// busy in a task: the hook runs and finds nobody to wake, which is
	// what a sender pays whenever the workers are keeping up.
	WakeNoneParked = "hook/none-parked"
	// WakeParked is the same port with its worker idle: enqueues find it
	// parked (or still searching) and wake it, and it transmits the
	// messages concurrently.
	WakeParked = "hook/parked"
	// IdleProbeNoneQueued is not an enqueue: it is what a worker running
	// dry pays to ask the port's two coalescers (action and response) for
	// partial batches when they hold none — one atomic load each.
	IdleProbeNoneQueued = "idle-probe/none-queued"
)

// PortEnqueueWake measures Port.EnqueueMessage, one single-parcel
// message per iteration, in the three situations the Wake hook can meet.
// The difference between WakeNoHook and WakeNoneParked is the hook's
// price on a busy runtime: an indirect call and two atomic loads.
// IdleProbeNoneQueued measures Port.FlushIdle instead.
func PortEnqueueWake(b *testing.B, mode string) {
	var port *parcel.Port
	switch mode {
	case WakeNoHook:
		port = newBenchPort()
		defer port.Close()
	case WakeNoneParked, WakeParked, IdleProbeNoneQueued:
		rt := runtime.New(runtime.Config{
			Localities:         2,
			WorkersPerLocality: 1,
			Fabric:             &nullFabric{n: 2},
			TaskOverhead:       -1,
		})
		defer rt.Shutdown()
		port = rt.Locality(0).Port()
		if mode == WakeNoneParked {
			release, running := make(chan struct{}), make(chan struct{})
			defer close(release)
			rt.Locality(0).Spawn(func() { close(running); <-release })
			<-running
		}
		if mode == IdleProbeNoneQueued {
			if err := rt.EnableCoalescing("bench-action", coalescing.Params{NParcels: 16, Interval: time.Second}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				port.FlushIdle()
			}
			return
		}
	default:
		b.Fatalf("unknown mode %q", mode)
	}
	p := makeParcels(1, 1, 64)[0]
	drain := func() {
		for port.PendingOutbound() > 0 {
			if mode == WakeParked {
				goruntime.Gosched() // the locality's worker is transmitting
			} else {
				port.DoBackgroundWork(1024)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.EnqueueMessage(1, append(parcel.GetBatch(), p))
		// Drained well inside the batch pool's 1024 slots, so GetBatch
		// never has to allocate.
		if port.PendingOutbound() >= 512 {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
	}
	b.StopTimer()
	drain()
}

// countingSink is an Enqueuer that recycles batches and counts parcels,
// standing in for the port at the coalescer's output.
type countingSink struct {
	parcels atomic.Int64
}

func (s *countingSink) EnqueueMessage(dst int, ps []*parcel.Parcel) {
	s.parcels.Add(int64(len(ps)))
	parcel.PutBatch(ps)
}

func (s *countingSink) EnqueueParcel(dst int, p *parcel.Parcel) {
	s.parcels.Add(1)
}

// CoalescerPut measures the striped coalescer's Put with the given
// number of concurrent sending goroutines, each targeting its own
// destination (the pattern striping is designed for). Flush timers are
// parked at a long interval so the measurement is the queue path itself.
func CoalescerPut(b *testing.B, workers int) {
	svc := timer.NewService(timer.ServiceOptions{})
	defer svc.Stop()
	sink := &countingSink{}
	c := coalescing.New(sink, coalescing.Params{NParcels: 64, Interval: time.Second},
		coalescing.Options{Action: "bench", TimerService: svc})
	defer c.Close()
	runSenders(b, workers, func(worker, i int, p *parcel.Parcel) {
		p.DestLocality = worker
		c.Put(p)
	})
}

// runSenders drives b.N Puts split across workers goroutines, giving
// each goroutine its own reusable parcel.
func runSenders(b *testing.B, workers int, put func(worker, i int, p *parcel.Parcel)) {
	b.ReportAllocs()
	per := b.N / workers
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := makeParcels(1, w, 64)[0]
			for i := 0; i < per; i++ {
				put(w, i, p)
			}
		}(w)
	}
	wg.Wait()
}

// CoalescerBenchName names a CoalescerPut variant consistently for
// bench_test.go and cmd/amc-bench.
func CoalescerBenchName(workers int) string {
	return fmt.Sprintf("CoalescerPut/goroutines=%d", workers)
}
