package bench

import (
	"testing"

	"repro/internal/taskbench"
)

// Thin wrappers so the suite runs under `go test -bench`; the bodies in
// bench.go are shared with cmd/amc-bench.

func BenchmarkEncodeBundle(b *testing.B)     { EncodeBundle(b) }
func BenchmarkDecodeBundle(b *testing.B)     { DecodeBundle(b) }
func BenchmarkDecodeBundleCopy(b *testing.B) { DecodeBundleCopy(b) }
func BenchmarkPortEnqueue(b *testing.B)      { PortEnqueue(b) }
func BenchmarkPortSend(b *testing.B)         { PortSend(b) }
func BenchmarkTCPSendFrame(b *testing.B)     { TCPSendFrame(b) }

func BenchmarkPortEnqueueWake(b *testing.B) {
	for _, mode := range []string{WakeNoHook, WakeNoneParked, WakeParked, IdleProbeNoneQueued} {
		b.Run(mode, func(b *testing.B) { PortEnqueueWake(b, mode) })
	}
}

func BenchmarkCoalescerPut(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(CoalescerBenchName(false, workers), func(b *testing.B) {
			CoalescerPut(b, workers)
		})
		b.Run(CoalescerBenchName(true, workers), func(b *testing.B) {
			CoalescerPutBaseline(b, workers)
		})
	}
}

// TestZeroAllocSendPath asserts the acceptance criterion directly:
// steady-state bundle encoding, the borrowing decode, the port send
// pipeline, a message's whole life in the reliable layer (send, deliver,
// ACK, window release) — also at 64 KiB over a loopback socket — the
// reliable scanner's idle tick and a TCP frame write all perform zero
// allocations per operation, and a coalescing
// queue's arm → fill → stop cycle allocates nothing per batch.
func TestZeroAllocSendPath(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	// One sender fills, flushes and re-arms its queue every 64 Puts. An
	// allocation per batch is 1/64 per op, which AllocsPerOp rounds down
	// to 0, so the guard is on the run's total: what is left is the
	// sender goroutine and the first Put's queue, timer and heap slot.
	// The first run cycles the shared batch pool, which other benchmarks
	// leave full of slices shorter than 64 that each grow once; the
	// second run is judged.
	var r testing.BenchmarkResult
	for i := 0; i < 2; i++ {
		r = testing.Benchmark(func(b *testing.B) { CoalescerPut(b, 1) })
		if r.N < 64*2048 {
			t.Fatalf("CoalescerPut ran only %d Puts; too few batches to tell", r.N)
		}
	}
	if r.MemAllocs > 64 {
		t.Errorf("CoalescerPut: %d allocations over %d Puts (%d batches), want a constant handful",
			r.MemAllocs, r.N, r.N/64)
	}
	for _, tc := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EncodeBundle", EncodeBundle},
		{"DecodeBundle", DecodeBundle},
		{"PortSend", PortSend},
		{"PortEnqueueWake/" + WakeNoneParked, func(b *testing.B) { PortEnqueueWake(b, WakeNoneParked) }},
		{"PortEnqueueWake/" + IdleProbeNoneQueued, func(b *testing.B) { PortEnqueueWake(b, IdleProbeNoneQueued) }},
		{"ReliableSendAck", ReliableSendAck},
		{"ReliableIdleSweep", ReliableIdleSweep},
		{"ReliableLargeTCP", ReliableLargeTCP},
		{"TCPSendFrame", TCPSendFrame},
	} {
		r := testing.Benchmark(tc.fn)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op, want 0", tc.name, a)
		}
	}
}

// TestE2EQuick smoke-runs the end-to-end suite at CI size so the full
// stack sweep (both fabrics, both decoders) stays exercised by go test.
func TestE2EQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e sweep skipped in -short mode")
	}
	res, err := RunE2E(E2EConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("e2e: no points measured")
	}
	for _, p := range res.Points {
		if p.ParcelsPerSec <= 0 {
			t.Errorf("e2e %s/%dB/coalesce=%d/%s: nonpositive throughput", p.Fabric, p.ArgsBytes, p.CoalesceN, p.Decode)
		}
		if p.WireMsgs == 0 {
			t.Errorf("e2e %s/%dB/coalesce=%d/%s: rx stats counted no wire messages", p.Fabric, p.ArgsBytes, p.CoalesceN, p.Decode)
		}
	}
	if res.GeomeanImprovement <= 0 {
		t.Errorf("e2e: geomean improvement %v, want > 0", res.GeomeanImprovement)
	}
}

func BenchmarkTaskbenchGraph(b *testing.B) {
	for _, pattern := range []taskbench.Pattern{taskbench.Stencil1D, taskbench.FFT, taskbench.Random} {
		b.Run(TaskbenchBenchName(pattern), func(b *testing.B) {
			TaskbenchGraph(b, pattern)
		})
	}
}

func BenchmarkReliableChaos(b *testing.B) {
	for _, lossPct := range []float64{0, 1, 5, 10} {
		b.Run(ReliableBenchName(lossPct), func(b *testing.B) {
			ReliableChaos(b, lossPct)
		})
	}
}

func BenchmarkReliableLinkDownDetection(b *testing.B) { ReliableLinkDownDetection(b) }
func BenchmarkReliableSendAck(b *testing.B)           { ReliableSendAck(b) }
func BenchmarkReliableIdleSweep(b *testing.B)         { ReliableIdleSweep(b) }
func BenchmarkReliableLargeTCP(b *testing.B)          { ReliableLargeTCP(b) }

func BenchmarkSchedSpawnExecute(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		for _, stealing := range []bool{true, false} {
			b.Run(SchedBenchName("SpawnExecute", stealing, workers), func(b *testing.B) {
				SchedSpawnExecute(b, stealing, workers, 0)
			})
		}
	}
}

func BenchmarkSchedEmptyTaskLatency(b *testing.B) {
	for _, stealing := range []bool{true, false} {
		b.Run(SchedBenchName("EmptyTaskLatency", stealing, 4), func(b *testing.B) {
			SchedEmptyTaskLatency(b, stealing, 4)
		})
	}
}

func BenchmarkSchedStealImbalance(b *testing.B) {
	for _, stealing := range []bool{true, false} {
		b.Run(SchedBenchName("StealImbalance", stealing, 16), func(b *testing.B) {
			SchedStealImbalance(b, stealing, 16)
		})
	}
}

func BenchmarkSchedBackgroundStarvation(b *testing.B) {
	for _, stealing := range []bool{true, false} {
		b.Run(SchedBenchName("BackgroundStarvation", stealing, 4), func(b *testing.B) {
			SchedBackgroundStarvation(b, stealing, 4)
		})
	}
}
