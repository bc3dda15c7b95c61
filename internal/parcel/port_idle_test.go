package parcel

import (
	"testing"
	"time"

	"repro/internal/agas"
)

// holdHandler holds every parcel back until FlushIdle, counting the
// calls.
type holdHandler struct {
	passHandler
	held  []*Parcel
	calls int
}

func (h *holdHandler) Put(p *Parcel) { h.held = append(h.held, p) }

func (h *holdHandler) FlushIdle() {
	h.calls++
	for _, p := range h.held {
		h.port.EnqueueParcel(p.DestLocality, p)
	}
	h.held = nil
}

// TestPortFlushIdleFansOutToIdleFlushers: FlushIdle reaches exactly the
// installed handlers that implement IdleFlusher, turns what they hold
// into background work, and follows the handler set as it changes.
func TestPortFlushIdleFansOutToIdleFlushers(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	port := c.ports[0]
	port.FlushIdle() // no handlers at all

	hold := &holdHandler{passHandler: passHandler{port: port}}
	port.SetMessageHandler("held", hold)
	port.SetMessageHandler("plain", &passHandler{port: port}) // no FlushIdle: skipped
	for i := 0; i < 3; i++ {
		if err := port.Put(&Parcel{Dest: agas.MakeGID(1, uint64(i+1)), DestLocality: 1, Action: "held"}); err != nil {
			t.Fatal(err)
		}
	}
	if port.Pending() {
		t.Fatal("held parcels reached the port before FlushIdle")
	}
	port.FlushIdle()
	if hold.calls != 1 || port.PendingOutbound() != 3 {
		t.Fatalf("after FlushIdle: %d calls, %d messages pending, want 1 and 3", hold.calls, port.PendingOutbound())
	}
	c.pump(5 * time.Second)
	if got := len(c.received(1)); got != 3 {
		t.Errorf("received %d parcels, want 3", got)
	}

	port.SetMessageHandler("held", nil)
	port.FlushIdle()
	if hold.calls != 1 {
		t.Errorf("a removed handler was asked to flush (%d calls)", hold.calls)
	}
	port.SetMessageHandler("held", hold)
	port.Close()
	port.FlushIdle()
	if hold.calls != 1 {
		t.Errorf("a closed port asked its former handler to flush (%d calls)", hold.calls)
	}
}
