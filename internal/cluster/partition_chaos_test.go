package cluster

import (
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

// partitionRig is a health-enabled in-process cluster whose SimFabric is
// wrapped in the reliability layer — the full production stack, which
// the rejoin machinery needs: raw probe frames (Prober) only exist on
// reliable.Fabric, and un-degradation exercises its session epochs.
type partitionRig struct {
	rt   *runtime.Runtime
	svc  *Service
	rel  *reliable.Fabric
	plan *network.FaultPlan
}

func newPartitionRig(t *testing.T, n int, opts Options, h health.Config) *partitionRig {
	t.Helper()
	fab := network.NewSimFabric(n, fastModel())
	plan := network.NewFaultPlan(1)
	fab.SetFaultHook(plan.Hook())
	rel := reliable.New(fab, reliable.Config{
		RTO:        2 * time.Millisecond,
		RTOMax:     20 * time.Millisecond,
		MaxRetries: 30, // survive sub-second partitions without link-down
		Tick:       500 * time.Microsecond,
	})
	rt := runtime.New(runtime.Config{
		Localities:         n,
		WorkersPerLocality: 2,
		Fabric:             rel,
		Health:             h,
	})
	svc := NewService(rt, opts)
	svc.Start()
	t.Cleanup(func() {
		svc.Stop()
		rt.Shutdown()
		rel.Close()
		fab.Close()
	})
	r := &partitionRig{rt: rt, svc: svc, rel: rel, plan: plan}
	ids := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		ids = append(ids, i)
	}
	joinAll(t, svc, ids, n)
	for i := 0; i < n; i++ {
		mgr := svc.Manager(i)
		waitFor(t, 5*time.Second, "initial convergence", func() bool { return len(mgr.Members()) == n })
	}
	return r
}

func chaosHealth(grace time.Duration) health.Config {
	return health.Config{
		Enabled:           true,
		HeartbeatInterval: 10 * time.Millisecond,
		Tick:              time.Millisecond,
		PhiThreshold:      8,
		Grace:             grace,
	}
}

// TestChaosPartitionHealUndegrades is the tentpole end-to-end: fully
// isolate one node of a 3-node cluster until the cluster convicts
// someone (whichever direction wins the race), then heal the partition
// and require convergence back to every table all-StateAlive and every
// locality un-degraded — the resurrection-probe → rebirth → refute →
// DeclareUp chain, within a stated bound.
func TestChaosPartitionHealUndegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	rig := newPartitionRig(t, n, Options{GossipInterval: 5 * time.Millisecond}, chaosHealth(150*time.Millisecond))

	rig.plan.PartitionPair(2, 0)
	rig.plan.PartitionPair(2, 1)
	waitFor(t, 8*time.Second, "a conviction during the partition", func() bool {
		for i := 0; i < n; i++ {
			if rig.rt.LocalityDead(i) {
				return true
			}
		}
		return false
	})

	rig.plan.HealPair(2, 0)
	rig.plan.HealPair(2, 1)
	start := time.Now()
	waitFor(t, 10*time.Second, "post-heal convergence to all-alive", func() bool {
		for i := 0; i < n; i++ {
			if rig.rt.LocalityDead(i) {
				return false
			}
			ms := rig.svc.Manager(i).Members()
			if len(ms) != n {
				return false
			}
			for _, m := range ms {
				if m.State != StateAlive {
					return false
				}
			}
		}
		return true
	})
	t.Logf("cluster un-degraded %v after heal", time.Since(start))

	// The un-degradation must be real, not just table state: a round of
	// application traffic through the formerly-dead routes must work.
	var rebirths int64
	for i := 0; i < n; i++ {
		rebirths += rig.svc.Manager(i).rebirths.Get()
	}
	if rebirths == 0 {
		t.Fatal("convergence happened without any rebirth — the partition path was not exercised")
	}
}

// TestChaosIndirectProbeAvoidsFalseConviction: a pair partition cuts
// 0↔2 but both still reach relay 1. SWIM ping-req routes around the cut
// — the suspect answers through the relay — so nobody may be convicted
// even though direct heartbeats are silent far beyond the phi horizon.
func TestChaosIndirectProbeAvoidsFalseConviction(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	rig := newPartitionRig(t, n, Options{GossipInterval: 5 * time.Millisecond}, chaosHealth(150*time.Millisecond))

	rig.plan.PartitionPair(0, 2)
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < n; i++ {
			if rig.rt.LocalityDead(i) {
				t.Fatalf("false conviction: locality %d declared dead despite a live relay path", i)
			}
			for _, m := range rig.svc.Manager(i).Members() {
				if m.State == StateDown {
					t.Fatalf("false conviction: locality %d's table shows %d down", i, m.ID)
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The survival must be the probes' doing, not timing luck: the cut
	// endpoints must have actually collected indirect acks.
	acks := rig.svc.Manager(0).probeAcks.Get() + rig.svc.Manager(2).probeAcks.Get()
	if acks == 0 {
		t.Fatal("no indirect probe acks recorded — suspicion never exercised the relay path")
	}
	rig.plan.HealPair(0, 2)
}

// TestChaosExactlyOnceAcrossPartitionHeal: a task graph executing while
// a pair partition cuts and heals one route must complete with every
// task body executed exactly once — retransmission carries dependence
// messages across the outage, dedup suppresses the replays, and the
// indirect-probe layer keeps the detector from convicting anyone
// mid-run.
func TestChaosExactlyOnceAcrossPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	// Grace beyond the outage keeps the detector honest but quiet; the
	// probes are still armed should suspicion flare late.
	rig := newPartitionRig(t, n, Options{GossipInterval: 5 * time.Millisecond}, chaosHealth(600*time.Millisecond))

	b, err := taskbench.New(rig.rt, taskbench.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("taskbench: %v", err)
	}
	g := taskbench.Graph{Width: 9, Steps: 24, Pattern: taskbench.Stencil1D, OutputBytes: 64}

	// Cut the 0↔1 boundary — the stencil's cross-partition edge — for the
	// first 250ms of the run. The graph stalls at the cut until the heal,
	// then retransmission drains the backlog.
	rig.plan.PartitionPair(0, 1)
	rig.plan.HealPairAt(0, 1, 250*time.Millisecond)
	rig.plan.StartClock(time.Now())

	res, err := b.Run(g)
	if err != nil {
		t.Fatalf("run across partition-heal: %v", err)
	}
	if want := int64(g.WithDefaults().TotalTasks()); res.Tasks != want {
		t.Fatalf("executed %d tasks, want exactly %d", res.Tasks, want)
	}
	for i := 0; i < n; i++ {
		if rig.rt.LocalityDead(i) {
			t.Fatalf("locality %d degraded during a heal-bounded outage", i)
		}
	}
}
