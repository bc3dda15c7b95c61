package network

import "testing"

func TestGetPayloadLength(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 1 << 20, 1<<20 + 1} {
		b := GetPayload(n)
		if len(b) != n {
			t.Errorf("GetPayload(%d): len %d", n, len(b))
		}
		PutPayload(b)
	}
}

func TestPayloadRoundTripReusesBuffer(t *testing.T) {
	// Drain the class so the test observes its own buffer.
	for {
		select {
		case <-payloadClasses[payloadClass(1000)]:
			continue
		default:
		}
		break
	}
	b := GetPayload(1000)
	if cap(b) != 1024 {
		t.Fatalf("cap = %d, want size-class 1024", cap(b))
	}
	b[0] = 0xEE
	PutPayload(b)
	b2 := GetPayload(600) // same 1024-byte size class
	if cap(b2) != 1024 || b2[0] != 0xEE {
		t.Errorf("pooled buffer not reused: cap=%d first=%x", cap(b2), b2[0])
	}
	PutPayload(b2)
}

func TestPutPayloadIgnoresForeignBuffers(t *testing.T) {
	// Non-power-of-two capacities, tiny buffers, and oversized buffers
	// must all be rejected without panicking.
	PutPayload(nil)
	PutPayload(make([]byte, 0, 100))
	PutPayload(make([]byte, 10, 768))
	PutPayload(make([]byte, 0, 1<<22))
}

// TestPutPayloadCountsDrops: a buffer released into a full class goes to
// the garbage collector, and PayloadPoolStats counts it.
func TestPutPayloadCountsDrops(t *testing.T) {
	const size = 1 << 19 // a class nothing else in the package uses
	c := payloadClass(size)
	free := payloadClasses[c]
	for len(free) < cap(free) {
		PutPayload(make([]byte, size))
	}
	before := PayloadPoolStats()[c]
	PutPayload(make([]byte, size))
	after := PayloadPoolStats()[c]
	if after.Size != size || after.Drops-before.Drops != 1 {
		t.Errorf("%d-byte class: %d drops for one buffer put into a full class, want 1", after.Size, after.Drops-before.Drops)
	}
	if after.Gets != before.Gets || after.Misses != before.Misses {
		t.Errorf("a put moved gets %d -> %d, misses %d -> %d", before.Gets, after.Gets, before.Misses, after.Misses)
	}
}

func TestPayloadClassBounds(t *testing.T) {
	if c := payloadClass(1); c != 0 {
		t.Errorf("class(1) = %d", c)
	}
	if c := payloadClass(1 << maxPayloadShift); c != maxPayloadShift-minPayloadShift {
		t.Errorf("class(max) = %d", c)
	}
	if c := payloadClass(1<<maxPayloadShift + 1); c != -1 {
		t.Errorf("class(max+1) = %d, want -1", c)
	}
}

func BenchmarkPayloadGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetPayload(1500)
		PutPayload(buf)
	}
}
