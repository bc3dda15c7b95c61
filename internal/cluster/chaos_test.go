package cluster

import (
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/runtime"
)

// chaosRig is a health-enabled in-process cluster over a fault-injectable
// SimFabric: the full detection chain (phi accrual → suspicion gossip →
// confirmed down → degradation) under a deterministic fault plan.
type chaosRig struct {
	rt   *runtime.Runtime
	svc  *Service
	plan *network.FaultPlan
}

func newChaosRig(t *testing.T, n int) *chaosRig {
	t.Helper()
	fab := network.NewSimFabric(n, fastModel())
	plan := network.NewFaultPlan(1)
	fab.SetFaultHook(plan.Hook())
	rt := runtime.New(runtime.Config{
		Localities:         n,
		WorkersPerLocality: 2,
		Fabric:             fab,
		Health: health.Config{
			Enabled:           true,
			HeartbeatInterval: 10 * time.Millisecond,
			Tick:              time.Millisecond,
			PhiThreshold:      8,
			Grace:             150 * time.Millisecond,
		},
	})
	svc := NewService(rt, Options{GossipInterval: 5 * time.Millisecond})
	svc.Start()
	t.Cleanup(func() {
		svc.Stop()
		rt.Shutdown()
		fab.Close()
	})
	return &chaosRig{rt: rt, svc: svc, plan: plan}
}

func (r *chaosRig) converge(t *testing.T, n int) {
	t.Helper()
	ids := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		ids = append(ids, i)
	}
	joinAll(t, r.svc, ids, n)
	for i := 0; i < n; i++ {
		mgr := r.svc.Manager(i)
		waitFor(t, 5*time.Second, "initial convergence", func() bool { return len(mgr.Members()) == n })
	}
}

// TestChaosLossyLinkNoFalsePositives: 5% loss plus 5% reorder on every
// link must not convict anyone — gossip keeps phi fed and suspicion that
// does flare is refuted before the hard threshold.
func TestChaosLossyLinkNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	rig := newChaosRig(t, n)
	rig.converge(t, n)
	rig.plan.SetDefault(network.LinkFaults{DropRate: 0.05, ReorderRate: 0.05})

	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < n; i++ {
			if rig.rt.LocalityDead(i) {
				t.Fatalf("false positive: locality %d declared dead under 5%% loss", i)
			}
			for _, m := range rig.svc.Manager(i).Members() {
				if m.State == StateDown {
					t.Fatalf("false positive: locality %d's table shows %d down", i, m.ID)
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCrashConvergesBounded: a real crash must reach confirmed-down
// in every survivor's table — and trigger runtime degradation — within a
// bounded window, even with background loss.
func TestChaosCrashConvergesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	rig := newChaosRig(t, n)
	rig.converge(t, n)
	rig.plan.SetDefault(network.LinkFaults{DropRate: 0.02})

	start := time.Now()
	rig.plan.Crash(2)
	rig.rt.CrashLocality(2)

	const bound = 5 * time.Second
	for _, i := range []int{0, 1} {
		mgr := rig.svc.Manager(i)
		waitFor(t, bound, "survivor table to show the crash", func() bool {
			e, ok := mgr.Lookup(2)
			return ok && e.State == StateDown
		})
	}
	if !rig.rt.LocalityDead(2) {
		t.Fatal("confirmed-down did not reach DeclareDown")
	}
	t.Logf("crash confirmed cluster-wide in %v", time.Since(start))
}

// TestChaosOneWayPartition: locality 2 can hear but not speak. The
// survivors must convict it (its silence accrues), and the obituary sent
// on the still-open inbound path must reach its manager, which refutes
// it as a rebirth.
func TestChaosOneWayPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos test")
	}
	const n = 3
	rig := newChaosRig(t, n)
	rig.converge(t, n)
	rig.plan.SetLink(2, 0, network.LinkFaults{Partition: true})
	rig.plan.SetLink(2, 1, network.LinkFaults{Partition: true})

	for _, i := range []int{0, 1} {
		mgr := rig.svc.Manager(i)
		waitFor(t, 5*time.Second, "survivors to convict the mute node", func() bool {
			e, ok := mgr.Lookup(2)
			return ok && e.State == StateDown
		})
	}
	waitFor(t, 5*time.Second, "mute node to learn its own conviction", func() bool {
		return rig.svc.Manager(2).rebirths.Get() > 0
	})
}
