package parcel

import (
	"slices"
	"testing"

	"repro/internal/agas"
	"repro/internal/network"
)

// recordFabric accepts every send, records its destination and recycles
// the payload; it never delivers. The port calls Send from the goroutine
// doing background work, here the test's own.
type recordFabric struct {
	n   int
	dst []int
}

func (f *recordFabric) Send(src, dst int, payload []byte) error {
	f.dst = append(f.dst, dst)
	network.PutPayload(payload)
	return nil
}

func (f *recordFabric) SetHandler(int, network.Handler) {}
func (f *recordFabric) Localities() int                 { return f.n }
func (f *recordFabric) Model() network.CostModel        { return network.CostModel{} }
func (f *recordFabric) Stats() network.Stats            { return network.Stats{} }
func (f *recordFabric) Close() error                    { return nil }

// TestPortSendsInQueueOrder pins the port's ordering contract: messages
// leave in the order they were queued, whatever their destinations.
// Reordering happens only above the port (a coalescer's flush causes) or
// below it (a reliable layer's retransmits).
func TestPortSendsInQueueOrder(t *testing.T) {
	fab := &recordFabric{n: 3}
	port := NewPort(Config{
		Locality: 0,
		Fabric:   fab,
		Resolve:  func(g agas.GID) (int, error) { return g.AllocLocality(), nil },
		Deliver:  func(*Parcel) {},
	})
	defer port.Close()
	queued := []int{2, 1, 2, 2, 1}
	for i, dst := range queued {
		if err := port.Put(&Parcel{DestLocality: dst, Action: "act", Args: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for port.DoBackgroundWork(1) > 0 {
	}
	if !slices.Equal(fab.dst, queued) {
		t.Errorf("sent to %v, queued for %v", fab.dst, queued)
	}
}
