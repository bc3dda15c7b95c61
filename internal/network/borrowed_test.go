package network

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// borrowSender is what both socket fabrics offer the reliability layer.
type borrowSender interface {
	Fabric
	SendBorrowed(src, dst int, frame []byte) error
	SetFaultHook(FaultHook)
}

// TestSendBorrowedLeavesFrameWithCaller pins the borrowed contract under
// every fault action, on both socket fabrics: the moment SendBorrowed
// returns the caller may overwrite or recycle the frame, and what arrives
// — at once, twice, or late from the fault timer — is still what was
// sent; a dropped frame is not released on the caller's behalf.
func TestSendBorrowedLeavesFrameWithCaller(t *testing.T) {
	PoisonReleasedPayloads(true)
	t.Cleanup(func() { PoisonReleasedPayloads(false) })

	fabrics := map[string]func(t *testing.T) (tx, rx borrowSender){
		"tcp": func(t *testing.T) (borrowSender, borrowSender) {
			f, err := NewTCPFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			return f, f
		},
		"peer": func(t *testing.T) (borrowSender, borrowSender) {
			a, b := newPeerPair(t)
			return a, b
		},
	}
	faults := []struct {
		name     string
		fault    Fault
		arrivals int
	}{
		{"deliver", Fault{}, 1},
		{"drop", Fault{Action: FaultDrop}, 0},
		{"duplicate", Fault{Action: FaultDuplicate}, 2},
		{"delay", Fault{Action: FaultDelay, Delay: 2 * time.Millisecond}, 1},
		{"reorder", Fault{Action: FaultReorder}, 1},
	}
	for name, build := range fabrics {
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
				tx.SetFaultHook(func(int, int, []byte) Fault { return tc.fault })

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
