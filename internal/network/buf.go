package network

import (
	"math/bits"
	"sync/atomic"
)

// Payload buffer pool.
//
// Wire payloads are the highest-rate allocation of the transmission
// pipeline: every message encoded by a parcel port and every frame read
// off a TCP socket needs a byte buffer that lives exactly from encode (or
// socket read) until the receiving port has decoded it. The pool recycles
// those buffers across messages so the steady-state hot path performs no
// heap allocation.
//
// Buffers are size-classed by power of two between minPayloadShift and
// maxPayloadShift. Each class is backed by a fixed-capacity channel used
// as a free list: channel operations do not allocate (unlike sync.Pool,
// whose Put boxes the slice header on every call), which is what keeps
// GetPayload/PutPayload off the allocation profile entirely. When a class
// is empty, GetPayload falls back to make; when full, PutPayload lets the
// buffer go to the garbage collector. Total pooled memory is bounded by
// classBudgetBytes per class.
//
// Ownership protocol: a buffer has one owner at a time, and a payload
// byte is copied in user space at most once per direction. Sending, the
// parcel port encodes into a buffer with FrameSlack spare capacity and
// passes it to Fabric.Send, which takes ownership. The reliability layer
// appends its trailer in that spare capacity and keeps the buffer in its
// retransmission window until the frame is acknowledged; a socket fabric
// writes from it through SendBorrowed, which reads the buffer only until
// it returns and never releases it, and a fabric without SendBorrowed is
// sent a copy it owns (an in-process fabric hands that same buffer to the
// destination handler, so the copy is its wire). Receiving, a socket
// fabric reads the payload from the connection into one pooled buffer and
// hands it to the destination handler, which owns it; the reliability
// layer passes that buffer up, resliced to exclude its trailer but with
// its capacity intact, so the parcel port's borrowed decode aliases the
// bytes the socket read wrote and the bundle's last Release recycles them
// with PutPayload (the "explicit release point"). Releasing is optional —
// an unreleased buffer is simply collected — but a released buffer must
// never be used again; PoisonReleasedPayloads makes a test that breaks
// this rule fail.

// FrameSlack is the spare capacity, beyond its length, that a sender
// leaves in a payload it passes to Fabric.Send so that a framing layer
// below can append its trailer in place instead of copying the payload
// into a larger buffer.
const FrameSlack = 32

const (
	minPayloadShift = 8  // 256 B
	maxPayloadShift = 20 // 1 MiB

	// classBudgetBytes bounds the memory parked in each size class. A
	// class needs a slot for every buffer in flight at once or it drops
	// buffers on release and allocates (and clears) new ones on demand.
	// On the stream_large benchmark workload (66 KiB bundles over reliable
	// and loopback TCP, 2 vCPUs), sampled every millisecond, the 128 KiB
	// buffers outstanding between the sender's retransmission window and
	// the receiver's undecoded and borrowed messages number 10-11 at the
	// median, 30 at the 99th percentile and 60-90 at most, so the 64 slots
	// here drop a few (/network/payload-pool/drops@131072). They numbered
	// 19-20, 50-52 and 78-113 while the delayed ACK was bounded in time
	// only, and at 4 MiB (32 slots) one Get in thirty missed then.
	classBudgetBytes = 8 << 20
)

const payloadClassCount = maxPayloadShift - minPayloadShift + 1

var payloadClasses [payloadClassCount]chan []byte

// poolCounts are one size class's GetPayload and PutPayload outcomes,
// padded so that two classes' counters do not share a cache line.
type poolCounts struct {
	gets, misses, drops atomic.Uint64
	_                   [40]byte
}

var payloadCounts [payloadClassCount]poolCounts

// PayloadClassStats is the traffic of one size class of the payload pool.
type PayloadClassStats struct {
	Size   int    // buffer capacity of the class in bytes
	Gets   uint64 // GetPayload calls served by the class
	Misses uint64 // of those, calls that found it empty and allocated
	Drops  uint64 // PutPayload calls that found it full: garbage left to the GC
}

// PayloadPoolStats returns the cumulative, process-wide GetPayload and
// PutPayload counts per size class, smallest class first. A class whose
// misses keep growing in steady state has more buffers in flight than
// slots; its drops are the buffers the collector must reclaim.
func PayloadPoolStats() (st [payloadClassCount]PayloadClassStats) {
	for i := range payloadCounts {
		st[i] = PayloadClassStats{
			Size:   1 << (minPayloadShift + i),
			Gets:   payloadCounts[i].gets.Load(),
			Misses: payloadCounts[i].misses.Load(),
			Drops:  payloadCounts[i].drops.Load(),
		}
	}
	return st
}

// poisonReleased makes PutPayload overwrite every buffer it pools.
var poisonReleased atomic.Bool

// PoisonReleasedPayloads is a test hook: while on, PutPayload overwrites
// the whole of every pooled buffer with 0xDB, so a reader still holding a
// released buffer sees garbage (and, under the race detector, races with
// the overwrite) instead of bytes that happen to be intact.
func PoisonReleasedPayloads(on bool) { poisonReleased.Store(on) }

func init() {
	for i := range payloadClasses {
		size := 1 << (minPayloadShift + i)
		slots := classBudgetBytes / size
		if slots > 4096 {
			slots = 4096
		}
		if slots < 4 {
			slots = 4
		}
		payloadClasses[i] = make(chan []byte, slots)
	}
}

// payloadClass returns the class index for a request of n bytes, or -1
// when n exceeds the largest class.
func payloadClass(n int) int {
	if n <= 1<<minPayloadShift {
		return 0
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift > maxPayloadShift {
		return -1
	}
	return shift - minPayloadShift
}

// GetPayload returns a buffer of length n, recycled when a suitably sized
// one is pooled. Contents are unspecified; callers overwrite or reslice
// to zero length before appending.
func GetPayload(n int) []byte {
	c := payloadClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	payloadCounts[c].gets.Add(1)
	select {
	case b := <-payloadClasses[c]:
		return b[:n]
	default:
		payloadCounts[c].misses.Add(1)
		return make([]byte, n, 1<<(minPayloadShift+c))
	}
}

// PutPayload recycles b. Only buffers whose capacity exactly matches a
// size class are pooled (anything else — including buffers that were
// never pooled — is left to the garbage collector), so PutPayload is safe
// to call on any slice. The caller must not use b afterwards.
func PutPayload(b []byte) {
	c := cap(b)
	if c < 1<<minPayloadShift || c&(c-1) != 0 {
		return
	}
	idx := bits.TrailingZeros(uint(c)) - minPayloadShift
	if idx < 0 || idx >= len(payloadClasses) {
		return
	}
	b = b[:c]
	if poisonReleased.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
	select {
	case payloadClasses[idx] <- b:
	default:
		payloadCounts[idx].drops.Add(1)
	}
}
