package runtime

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/reliable"
)

// TestReliabilityCountersInTheRuntime: a runtime given a reliable fabric
// exposes the layer's counters in its own registry, the global ones and
// each link's timer gauges, with nothing configured on the fabric.
func TestReliabilityCountersInTheRuntime(t *testing.T) {
	rel := reliable.New(network.NewSimFabric(2, fastModel()), reliable.Config{})
	rt := New(Config{Localities: 2, WorkersPerLocality: 1, Fabric: rel})
	t.Cleanup(func() {
		rt.Shutdown()
		rel.Close()
	})
	rt.MustRegisterAction("rel/sink", func(*Context, []byte) ([]byte, error) { return nil, nil })

	// One-way traffic: locality 1 sends no data back, so every ACK is a
	// standalone frame, and each ACK is an RTT sample for link 0 -> 1.
	const acks, srtt = "/network/reliability/acks", "/network{locality#0/to#1}/reliability/srtt-us"
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := rt.Locality(0).Apply(1, "rel/sink", []byte("x")); err != nil {
			t.Fatal(err)
		}
		a, errA := rt.Counters().Value(acks)
		s, errS := rt.Counters().Value(srtt)
		if errA == nil && errS == nil && a > 0 && s > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v (%v), %s = %v (%v)", acks, a, errA, srtt, s, errS)
		}
		time.Sleep(time.Millisecond)
	}
}
