package bench

import (
	"testing"

	"repro/internal/taskbench"
)

// Thin wrappers so the suite runs under `go test -bench`; the bodies
// live in the package's other files.

func BenchmarkEncodeBundle(b *testing.B) { EncodeBundle(b) }
func BenchmarkDecodeBundle(b *testing.B) { DecodeBundle(b) }
func BenchmarkPortEnqueue(b *testing.B)  { PortEnqueue(b) }
func BenchmarkPortSend(b *testing.B)     { PortSend(b) }
func BenchmarkTCPSendFrame(b *testing.B) { TCPSendFrame(b) }

func BenchmarkPortEnqueueWake(b *testing.B) {
	for _, mode := range []string{WakeNoHook, WakeNoneParked, WakeParked, IdleProbeNoneQueued} {
		b.Run(mode, func(b *testing.B) { PortEnqueueWake(b, mode) })
	}
}

func BenchmarkCoalescerPut(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(CoalescerBenchName(workers), func(b *testing.B) {
			CoalescerPut(b, workers)
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
		b.Run(SchedBenchName("SpawnExecute", workers), func(b *testing.B) {
			SchedSpawnExecute(b, workers, 0)
		})
	}
}

func BenchmarkSchedEmptyTaskLatency(b *testing.B)     { SchedEmptyTaskLatency(b, 4) }
func BenchmarkSchedStealImbalance(b *testing.B)       { SchedStealImbalance(b, 16) }
func BenchmarkSchedBackgroundStarvation(b *testing.B) { SchedBackgroundStarvation(b, 4) }
