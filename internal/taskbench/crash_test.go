package taskbench

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/runtime"
)

// chaosRig is a runtime over a fault-injectable fabric with fast
// millisecond-scale failure detection.
type chaosRig struct {
	rt   *runtime.Runtime
	plan *network.FaultPlan
}

func newChaosRig(t *testing.T, localities int) *chaosRig {
	t.Helper()
	fab := network.NewSimFabric(localities, network.CostModel{
		SendOverhead: time.Microsecond, Latency: 2 * time.Microsecond,
	})
	plan := network.NewFaultPlan(1)
	fab.SetFaultHook(plan.Hook())
	rt := runtime.New(runtime.Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Fabric:             fab,
		Health: health.Config{
			Enabled:           true,
			HeartbeatInterval: 2 * time.Millisecond,
			Tick:              500 * time.Microsecond,
			PhiThreshold:      8,
			Grace:             20 * time.Millisecond,
		},
	})
	t.Cleanup(func() {
		rt.Shutdown()
		fab.Close()
	})
	return &chaosRig{rt: rt, plan: plan}
}

// runBudget bounds one chaos run by the test deadline (with margin for
// teardown) so a regression shows up as a clean bench error, never as a
// test-binary panic.
func runBudget(t *testing.T, def time.Duration) time.Duration {
	if d, ok := t.Deadline(); ok {
		if left := time.Until(d) - 2*time.Second; left < def {
			return left
		}
	}
	return def
}

// TestChaosCrashMatrix crashes a locality at varying graph progress
// points under three dependence patterns, with and without the recovery
// policy. Every cell must terminate cleanly: recovery runs complete with
// every task executed exactly once on the survivors; non-recovery runs
// fail with ErrLocalityDown within the run budget. No cell may hang.
func TestChaosCrashMatrix(t *testing.T) {
	for _, pat := range []Pattern{Stencil1D, Tree, Random} {
		for _, atStep := range []int{0, 3} {
			for _, recov := range []bool{false, true} {
				name := fmt.Sprintf("%s/at-step-%d/recover-%v", pat, atStep, recov)
				t.Run(name, func(t *testing.T) {
					rig := newChaosRig(t, 3)
					bench, err := New(rig.rt, Options{Timeout: runBudget(t, 20*time.Second), Recover: recov})
					if err != nil {
						t.Fatal(err)
					}
					g := Graph{Width: 12, Steps: 6, Pattern: pat, Iterations: 16, OutputBytes: 8}
					res, err := bench.RunWithCrash(g, CrashSpec{
						Locality: 2, AtStep: atStep, Plan: rig.plan,
					})
					if recov {
						if err != nil {
							t.Fatalf("recovery run failed: %v", err)
						}
						if want := int64(res.Graph.TotalTasks()); res.Tasks != want {
							t.Fatalf("recovery run executed %d tasks, want exactly %d", res.Tasks, want)
						}
						return
					}
					if err == nil {
						t.Fatal("run survived a crash with no recovery policy")
					}
					if !errors.Is(err, network.ErrLocalityDown) {
						t.Fatalf("non-recovery run failed with %v, want a clean ErrLocalityDown (a timeout here means the run hung)", err)
					}
				})
			}
		}
	}
}

// TestCrashSpecValidation covers the rejection paths: bad locality, bad
// step, missing plan, single-locality runtime, and a runtime without
// health monitoring.
func TestCrashSpecValidation(t *testing.T) {
	rig := newChaosRig(t, 2)
	bench, err := New(rig.rt, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g := Graph{Width: 4, Steps: 3}
	cases := []CrashSpec{
		{Locality: -1, Plan: rig.plan},
		{Locality: 2, Plan: rig.plan},
		{Locality: 1, AtStep: 99, Plan: rig.plan},
		{Locality: 1, AtStep: 1, Plan: nil},
	}
	for i, spec := range cases {
		if _, err := bench.RunWithCrash(g, spec); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, spec)
		}
	}

	// No health monitoring: crash runs must be refused up front rather
	// than hanging on a detector that does not exist.
	plain := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 1})
	t.Cleanup(plain.Shutdown)
	pb, err := New(plain, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.RunWithCrash(g, CrashSpec{Locality: 1, AtStep: 0, Plan: rig.plan}); err == nil {
		t.Error("crash run accepted on a runtime without health monitoring")
	}
}

// TestRunFailsFastOnADownLocality: Run itself, not just a crash-injected
// run, must fail with ErrLocalityDown once a locality is declared down
// mid-run, well inside its timeout — never stall until it expires.
func TestRunFailsFastOnADownLocality(t *testing.T) {
	rig := newChaosRig(t, 3)
	timeout := runBudget(t, 5*time.Second)
	b, err := New(rig.rt, Options{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	g := Graph{Pattern: Stencil1D, Width: 6, Steps: 4000, Iterations: 200, OutputBytes: 32}
	go func() {
		time.Sleep(30 * time.Millisecond)
		rig.plan.Crash(2)
		rig.rt.CrashLocality(2)
	}()
	start := time.Now()
	_, err = b.Run(g)
	if took := time.Since(start); !errors.Is(err, network.ErrLocalityDown) || took > timeout/2 {
		t.Fatalf("Run returned %v after %v (timeout %v), want ErrLocalityDown well inside the timeout", err, took, timeout)
	}
}

// TestScanLatchWaitsForFinishedTasks: once a re-home moves points into
// this process, the recovery watchdog's scan decides when the run is
// over, and it must wait for tasks that have finished, not only been
// claimed. Locality 2 lives in another process and is down before the
// run, so its points re-home here; a grain of about 2 ms holds every
// task between its claim and its count, longer than the watchdog's tick.
func TestScanLatchWaitsForFinishedTasks(t *testing.T) {
	fab := network.NewSimFabric(3, network.CostModel{SendOverhead: time.Microsecond, Latency: 2 * time.Microsecond})
	rt := runtime.New(runtime.Config{Localities: 3, WorkersPerLocality: 2, Fabric: fab, Hosted: []int{0, 1}})
	t.Cleanup(func() {
		rt.Shutdown()
		fab.Close()
	})
	b, err := New(rt, Options{Timeout: runBudget(t, 30*time.Second), Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.DeclareDown(2)

	const probe = 1 << 16
	start := time.Now()
	grind(probe)
	iters := int(int64(2*time.Millisecond) * probe / max(int64(time.Since(start)), 1))
	g := Graph{Pattern: Stencil1D, Width: 6, Steps: 4, Iterations: iters, OutputBytes: 8}
	for i := 0; i < 3; i++ {
		res, err := b.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(res.Graph.TotalTasks()); res.Tasks != want {
			t.Fatalf("run %d: Run returned with %d of %d tasks finished", i, res.Tasks, want)
		}
	}
}
