package collectives_test

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/collectives"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/runtime"
)

// newChaosRuntime builds a 4-locality runtime whose fabric drops 5%,
// reorders 5% and duplicates 2% of frames under the reliable-delivery
// layer — the same fault plan as the PR 3 chaos tests, extended here to
// the collectives layer.
func newChaosRuntime(t *testing.T, seed int64) (*runtime.Runtime, *network.FaultPlan, *reliable.Fabric) {
	t.Helper()
	inner := network.NewSimFabric(4, network.CostModel{Latency: 5 * time.Microsecond})
	plan := network.NewFaultPlan(seed)
	plan.SetDefault(network.LinkFaults{
		DropRate:      0.05,
		ReorderRate:   0.05,
		DuplicateRate: 0.02,
	})
	inner.SetFaultHook(plan.Hook())
	rel := reliable.New(inner, reliable.Config{
		RTO:      2 * time.Millisecond,
		AckDelay: 200 * time.Microsecond,
		Tick:     100 * time.Microsecond,
	})
	rt := runtime.New(runtime.Config{
		Localities:         4,
		WorkersPerLocality: 2,
		Fabric:             rel,
	})
	t.Cleanup(func() {
		rt.Shutdown()
		rel.Close()
	})
	return rt, plan, rel
}

func u32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

func sumU32(a, b []byte) ([]byte, error) {
	return u32(binary.LittleEndian.Uint32(a) + binary.LittleEndian.Uint32(b)), nil
}

// TestChaosGatherExactlyOnce runs repeated Gathers over the lossy fabric
// and checks the root receives every locality's contribution exactly
// once — no losses (the reliable layer retransmits) and no duplicates
// (dedup suppresses the injected copies).
func TestChaosGatherExactlyOnce(t *testing.T) {
	rt, plan, rel := newChaosRuntime(t, 21)
	comm, err := collectives.NewComm(rt, "chaos-gather")
	if err != nil {
		t.Fatal(err)
	}
	// Enough rounds that a data frame is dropped, and so retransmitted,
	// in every run. Eight rounds lost only ACKs in one run in eight, and
	// in three in ten once hops stopped costing a park tick each: ACKs
	// that outlasted the 2 ms RTO had been adding spurious
	// retransmissions.
	const rounds = 64
	for round := 0; round < rounds; round++ {
		root := round % rt.Localities()
		tag := string(rune('a' + round))
		results := make(chan [][]byte, 1)
		var wg sync.WaitGroup
		for l := 0; l < rt.Localities(); l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				parts, err := comm.Gather(l, root, tag, u32(uint32(100*round+l)))
				if err != nil {
					t.Errorf("round %d: gather at %d: %v", round, l, err)
					return
				}
				if l == root {
					results <- parts
				}
			}(l)
		}
		wg.Wait()
		parts := <-results
		if len(parts) != rt.Localities() {
			t.Fatalf("round %d: root got %d contributions, want %d", round, len(parts), rt.Localities())
		}
		got := make([]int, len(parts))
		for i, p := range parts {
			got[i] = int(binary.LittleEndian.Uint32(p))
		}
		sort.Ints(got)
		for i, v := range got {
			if want := 100*round + i; v != want {
				t.Fatalf("round %d: contributions %v (duplicate or lost value at %d)", round, got, i)
			}
		}
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; chaos run was vacuous")
	}
	if st := rel.ReliabilityStats(); st.Retransmits == 0 {
		t.Error("no retransmissions despite injected drops")
	}
}

// TestChaosReduceExactlyOnce checks a sum reduction over the lossy
// fabric: an injected duplicate that leaked through dedup would inflate
// the sum, a drop that was never retransmitted would deflate it.
func TestChaosReduceExactlyOnce(t *testing.T) {
	rt, plan, _ := newChaosRuntime(t, 22)
	comm, err := collectives.NewComm(rt, "chaos-reduce")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	for round := 0; round < rounds; round++ {
		root := (round + 1) % rt.Localities()
		tag := string(rune('a' + round))
		want := uint32(0)
		for l := 0; l < rt.Localities(); l++ {
			want += uint32(1000*round + 7*l)
		}
		results := make(chan []byte, 1)
		var wg sync.WaitGroup
		for l := 0; l < rt.Localities(); l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				red, err := comm.Reduce(l, root, tag, u32(uint32(1000*round+7*l)), sumU32)
				if err != nil {
					t.Errorf("round %d: reduce at %d: %v", round, l, err)
					return
				}
				if l == root {
					results <- red
				}
			}(l)
		}
		wg.Wait()
		if got := binary.LittleEndian.Uint32(<-results); got != want {
			t.Fatalf("round %d: reduction = %d, want exactly %d", round, got, want)
		}
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; chaos run was vacuous")
	}
}

// TestChaosBroadcastExactlyOnce checks every locality receives the
// root's broadcast value intact across repeated rounds under loss,
// reorder and duplication.
func TestChaosBroadcastExactlyOnce(t *testing.T) {
	rt, plan, _ := newChaosRuntime(t, 23)
	comm, err := collectives.NewComm(rt, "chaos-bcast")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	for round := 0; round < rounds; round++ {
		root := round % rt.Localities()
		tag := string(rune('a' + round))
		want := uint32(424242 + round)
		var wg sync.WaitGroup
		for l := 0; l < rt.Localities(); l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				var payload []byte
				if l == root {
					payload = u32(want)
				}
				got, err := comm.Broadcast(l, root, tag, payload)
				if err != nil {
					t.Errorf("round %d: broadcast at %d: %v", round, l, err)
					return
				}
				if v := binary.LittleEndian.Uint32(got); v != want {
					t.Errorf("round %d: locality %d received %d, want %d", round, l, v, want)
				}
			}(l)
		}
		wg.Wait()
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; chaos run was vacuous")
	}
}

// TestChaosAllReduceAndBarrier closes the loop on the composite
// collectives: AllReduce must deliver the exact sum to every locality
// and Barrier must release all participants, both over the lossy fabric.
func TestChaosAllReduceAndBarrier(t *testing.T) {
	rt, plan, _ := newChaosRuntime(t, 24)
	comm, err := collectives.NewComm(rt, "chaos-ar")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		tag := string(rune('a' + round))
		want := uint32(0)
		for l := 0; l < rt.Localities(); l++ {
			want += uint32(10*round + l + 1)
		}
		var wg sync.WaitGroup
		for l := 0; l < rt.Localities(); l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				got, err := comm.AllReduce(l, tag, u32(uint32(10*round+l+1)), sumU32)
				if err != nil {
					t.Errorf("round %d: allreduce at %d: %v", round, l, err)
					return
				}
				if v := binary.LittleEndian.Uint32(got); v != want {
					t.Errorf("round %d: locality %d got %d, want %d", round, l, v, want)
				}
				if err := comm.Barrier(l, tag); err != nil {
					t.Errorf("round %d: barrier at %d: %v", round, l, err)
				}
			}(l)
		}
		wg.Wait()
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; chaos run was vacuous")
	}
}
