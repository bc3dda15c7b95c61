package network

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestSendBorrowedLeavesFrameWithCaller pins the borrowed contract under
// every fault action, on the socket fabric both ways it is constructed:
// the moment SendBorrowed returns the caller may overwrite or recycle the
// frame, and what arrives — at once, twice, or late from the fault timer —
// is still what was sent; a dropped frame is not released on the caller's
// behalf. The drop rows also pin where the hook is consulted: a frame meets
// it once — when sent if its source is hosted by the fabric that holds the
// hook, when received if not (the receiver's hook is then the only one that
// can cut the link: the sender is another process).
func TestSendBorrowedLeavesFrameWithCaller(t *testing.T) {
	PoisonReleasedPayloads(true)
	t.Cleanup(func() { PoisonReleasedPayloads(false) })

	faults := []struct {
		name       string
		fault      Fault
		arrivals   int
		atReceiver bool // the hook goes on rx, not tx (the same fabric in-process)
	}{
		{"deliver", Fault{}, 1, false},
		{"drop", Fault{Action: FaultDrop}, 0, false},
		{"drop-at-receiver", Fault{Action: FaultDrop}, 0, true},
		{"duplicate", Fault{Action: FaultDuplicate}, 2, false},
		{"delay", Fault{Action: FaultDelay, Delay: 2 * time.Millisecond}, 1, false},
		{"reorder", Fault{Action: FaultReorder}, 1, false},
	}
	for name, build := range socketFabrics {
		for _, tc := range faults {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				tx, rx := build(t)
				var mu sync.Mutex
				var got [][]byte
				rx.SetHandler(1, func(_ int, p []byte) {
					mu.Lock()
					got = append(got, bytes.Clone(p))
					mu.Unlock()
					PutPayload(p)
				})
				hooked, other := tx, rx
				if tc.atReceiver {
					hooked, other = rx, tx
				}
				hooked.SetFaultHook(func(int, int, []byte) Fault { return tc.fault })

				const size = 64 << 10
				want := make([]byte, size)
				for i := range want {
					want[i] = byte(i*7 + i>>8)
				}
				frame := GetPayload(size)
				copy(frame, want)
				if err := tx.SendBorrowed(0, 1, frame); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frame, want) {
					t.Fatal("the frame changed under its owner: SendBorrowed released or wrote it")
				}
				// The owner reuses its buffer at once, as the retransmission
				// window does when the ACK beats the fault timer.
				PutPayload(frame)

				arrived := func() int {
					mu.Lock()
					defer mu.Unlock()
					return len(got)
				}
				waitFor(t, 5*time.Second, func() bool { return arrived() >= tc.arrivals }, "arrivals")
				if tc.fault.Action == FaultDrop {
					waitFor(t, 5*time.Second, func() bool { return hooked.Stats().Dropped >= 1 }, "the drop")
				}
				time.Sleep(5 * time.Millisecond) // nothing further may come
				mu.Lock()
				defer mu.Unlock()
				if len(got) != tc.arrivals {
					t.Fatalf("%d frames arrived, want %d", len(got), tc.arrivals)
				}
				for i, b := range got {
					if !bytes.Equal(b, want) {
						t.Errorf("arrival %d differs from what was sent", i)
					}
				}
				if tc.fault.Action == FaultDrop {
					if d := hooked.Stats().Dropped; d != 1 {
						t.Errorf("the fabric holding the hook counts %d drops of one frame, want 1", d)
					}
					if other != hooked && other.Stats().Dropped != 0 {
						t.Errorf("the fabric without a hook counts %d drops", other.Stats().Dropped)
					}
				}
			})
		}
	}
}

// TestPayloadPoolStatsCountMisses: a class's misses are the Gets that
// found it empty, and a buffer that comes back is a hit the next time.
func TestPayloadPoolStatsCountMisses(t *testing.T) {
	const size = 512 << 10 // a class nothing else in this package touches
	class := func() PayloadClassStats {
		for _, c := range PayloadPoolStats() {
			if c.Size == size {
				return c
			}
		}
		t.Fatalf("no %d-byte class", size)
		return PayloadClassStats{}
	}
	for m := class().Misses; class().Misses == m; { // empty the class
		GetPayload(size)
	}
	before := class()
	b := GetPayload(size - 100)
	if got := class(); got.Gets != before.Gets+1 || got.Misses != before.Misses+1 {
		t.Fatalf("first Get: gets %d→%d misses %d→%d, want +1/+1", before.Gets, got.Gets, before.Misses, got.Misses)
	}
	PutPayload(b)
	PutPayload(GetPayload(size))
	if got := class(); got.Gets != before.Gets+2 || got.Misses != before.Misses+1 {
		t.Fatalf("second Get: gets %d misses %d, want %d/%d", got.Gets, got.Misses, before.Gets+2, before.Misses+1)
	}
}
