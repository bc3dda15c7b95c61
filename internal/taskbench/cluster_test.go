package taskbench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/network"
)

// TestRunClusterInProcess: with every locality hosted, the cluster
// completion rule reduces to the whole graph — all tasks execute exactly
// once.
func TestRunClusterInProcess(t *testing.T) {
	rig := newChaosRig(t, 3)
	b, err := New(rig.rt, Options{Timeout: runBudget(t, 30*time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	g := Graph{Pattern: Stencil1D, Width: 6, Steps: 8, OutputBytes: 32}
	res, err := b.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != int64(res.Graph.TotalTasks()) {
		t.Fatalf("executed %d tasks, want %d", res.Tasks, int64(res.Graph.TotalTasks()))
	}
}

// TestRunClusterFailFast: a crash with no recovery policy must surface
// as a clean ErrLocalityDown error once the detector fires.
func TestRunClusterFailFast(t *testing.T) {
	rig := newChaosRig(t, 3)
	b, err := New(rig.rt, Options{Timeout: runBudget(t, 30*time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	// Big enough that the run is still going when detection lands.
	g := Graph{Pattern: Stencil1D, Width: 6, Steps: 4000, Iterations: 200, OutputBytes: 32}
	go func() {
		time.Sleep(30 * time.Millisecond)
		rig.plan.Crash(2)
		rig.rt.CrashLocality(2)
	}()
	_, err = b.Run(g)
	if !errors.Is(err, network.ErrLocalityDown) {
		t.Fatalf("got %v, want ErrLocalityDown", err)
	}
}

// TestRunClusterRecovers: with Recover, the dead locality's points are
// re-homed and re-driven; surviving hosted localities finish the whole
// re-homed partition.
func TestRunClusterRecovers(t *testing.T) {
	rig := newChaosRig(t, 3)
	b, err := New(rig.rt, Options{Timeout: runBudget(t, 30*time.Second), Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	g := Graph{Pattern: Stencil1D, Width: 6, Steps: 2000, Iterations: 200, OutputBytes: 32}
	go func() {
		time.Sleep(30 * time.Millisecond)
		rig.plan.Crash(2)
		rig.rt.CrashLocality(2)
	}()
	res, err := b.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// At-least-once across the crash, and every point's every step done.
	if res.Tasks < int64(res.Graph.TotalTasks()) {
		t.Fatalf("executed %d tasks, want >= %d", res.Tasks, int64(res.Graph.TotalTasks()))
	}
}
