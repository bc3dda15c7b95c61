package amc_test

import (
	"testing"
	"time"

	amc "repro"
)

// TestFacadeEndToEnd drives the whole stack through the public API only:
// runtime construction, action registration, coalescing, async round
// trips, counters, metrics, and the adaptive tuner.
func TestFacadeEndToEnd(t *testing.T) {
	rt := amc.NewRuntime(amc.RuntimeConfig{
		Localities:         2,
		WorkersPerLocality: 2,
		CostModel: amc.CostModel{
			SendOverhead: 3 * time.Microsecond,
			RecvOverhead: 3 * time.Microsecond,
			Latency:      5 * time.Microsecond,
		},
	})
	defer rt.Shutdown()

	rt.MustRegisterAction("echo", func(ctx *amc.Context, args []byte) ([]byte, error) {
		return args, nil
	})
	if err := rt.EnableCoalescing("echo", amc.CoalescingParams{
		NParcels: 8, Interval: 2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	rec := amc.NewPhaseRecorder(rt)
	tuner := amc.NewMultiTuner(rt, "echo", amc.MultiTunerConfig{SampleInterval: 10 * time.Millisecond})
	tuner.Start()
	defer tuner.Stop()

	for i := 0; i < 200; i++ {
		f, err := rt.Locality(0).Async(1, "echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := f.GetWithTimeout(5 * time.Second); err != nil || res[0] != byte(i) {
			t.Fatalf("round trip %d: %v %v", i, res, err)
		}
	}
	phase := rec.EndPhase("burst")
	if phase.Tasks < 200 {
		t.Errorf("phase tasks = %d", phase.Tasks)
	}
	if oh := phase.NetworkOverhead(); oh <= 0 || oh > 1 {
		t.Errorf("overhead = %v", oh)
	}

	snap := amc.Snapshot(rt)
	if snap.Tasks < 200 || snap.BackgroundWork <= 0 {
		t.Errorf("snapshot = %+v", snap)
	}

	// Counters reachable through the facade.
	if _, err := rt.Counters().Value("/coalescing{locality#0}/count/parcels@echo"); err != nil {
		t.Errorf("counter query: %v", err)
	}
	if v, err := rt.Counters().Value("/threads{locality#1}/background-overhead"); err != nil || v <= 0 {
		t.Errorf("Eq.4 counter = %v, %v", v, err)
	}
}
