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

func TestFacadeHelpers(t *testing.T) {
	if amc.DefaultCostModel().SendOverhead <= 0 {
		t.Error("default cost model empty")
	}
	if amc.ResponseAction("x") == "x" {
		t.Error("response action not namespaced")
	}
	ladder := amc.TunerLadder(8, time.Millisecond)
	if len(ladder) != 4 || ladder[3].NParcels != 8 {
		t.Errorf("ladder = %+v", ladder)
	}
	for _, s := range []amc.ExperimentScale{amc.QuickScale(), amc.DefaultScale(), amc.FullScale()} {
		if s.Name == "" {
			t.Error("unnamed scale")
		}
	}
}

func TestFacadePICSTuner(t *testing.T) {
	rt := amc.NewRuntime(amc.RuntimeConfig{Localities: 2, WorkersPerLocality: 1,
		CostModel: amc.CostModel{Latency: time.Microsecond}})
	defer rt.Shutdown()
	rt.MustRegisterAction("a", func(*amc.Context, []byte) ([]byte, error) { return nil, nil })
	if err := rt.EnableCoalescing("a", amc.CoalescingParams{NParcels: 1, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	tuner, err := amc.NewPICSTuner(rt, "a", amc.TunerLadder(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Feed synthetic monotone-improving times until convergence.
	times := map[int]time.Duration{1: 30 * time.Millisecond, 2: 20 * time.Millisecond, 4: 10 * time.Millisecond}
	for i := 0; i < 10 && !tuner.Converged(); i++ {
		p, _ := rt.CoalescingParams("a")
		tuner.OnIteration(times[p.NParcels])
	}
	if !tuner.Converged() || tuner.Best().NParcels != 4 {
		t.Errorf("best = %+v converged=%v", tuner.Best(), tuner.Converged())
	}
}

func TestFacadeCollectives(t *testing.T) {
	rt := amc.NewRuntime(amc.RuntimeConfig{Localities: 3, WorkersPerLocality: 2,
		CostModel: amc.CostModel{Latency: 5 * time.Microsecond}})
	defer rt.Shutdown()
	comm, err := amc.NewComm(rt, "t")
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]byte, 3)
	errs := make([]error, 3)
	doneCh := make(chan int, 3)
	for l := 0; l < 3; l++ {
		go func(l int) {
			results[l], errs[l] = comm.AllReduce(l, "x", []byte{byte(l + 1)}, func(a, b []byte) ([]byte, error) {
				return []byte{a[0] + b[0]}, nil
			})
			doneCh <- l
		}(l)
	}
	for i := 0; i < 3; i++ {
		<-doneCh
	}
	for l := 0; l < 3; l++ {
		if errs[l] != nil {
			t.Fatalf("locality %d: %v", l, errs[l])
		}
		if results[l][0] != 6 {
			t.Errorf("locality %d allreduce = %d", l, results[l][0])
		}
	}
}

func TestFacadeCounterSampler(t *testing.T) {
	rt := amc.NewRuntime(amc.RuntimeConfig{Localities: 2, WorkersPerLocality: 1,
		CostModel: amc.CostModel{Latency: time.Microsecond}})
	defer rt.Shutdown()
	s := amc.NewCounterSampler(rt, []string{"/threads{*}/count/cumulative@*"}, 2*time.Millisecond)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	if len(s.Samples()) < 2 {
		t.Errorf("samples = %d", len(s.Samples()))
	}
}
