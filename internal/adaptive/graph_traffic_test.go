package adaptive_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

// TestMultiTunerTracksTheSkewedHome drives the hot-destination path with
// the traffic a real task graph produces, without a clock: each window is
// one graph run on 4 localities, whose per-destination parcel deltas go to
// the tuner's per-window core under a falling synthetic overhead. A
// skewed graph fans in on its hot point's home, locality 0, which alone is
// tracked and overridden; a periodic stencil spreads its halo evenly, so
// nothing is. Either way the rest carries enough parcels to climb the
// action-wide NParcels on its falling share of the overhead.
func TestMultiTunerTracksTheSkewedHome(t *testing.T) {
	const localities = 4
	for _, tc := range []struct {
		pattern taskbench.Pattern
		hot     []int
	}{
		{taskbench.Skewed, []int{0}},
		{taskbench.Stencil1DPeriodic, nil},
	} {
		t.Run(string(tc.pattern), func(t *testing.T) {
			rt := runtime.New(runtime.Config{
				Localities:         localities,
				WorkersPerLocality: 2,
				CostModel:          network.CostModel{SendOverhead: 5 * time.Microsecond, RecvOverhead: 3 * time.Microsecond},
			})
			defer rt.Shutdown()
			b, err := taskbench.New(rt, taskbench.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.EnableCoalescing(b.ActionName(), coalescing.Params{NParcels: 1, Interval: 200 * time.Microsecond}); err != nil {
				t.Fatal(err)
			}
			tuner := adaptive.NewMultiTuner(rt, b.ActionName(), adaptive.MultiTunerConfig{})
			prev := tuner.DestParcels()
			for i, overhead := range []float64{0.5, 0.4, 0.3, 0.25} {
				if _, err := b.Run(taskbench.Graph{Pattern: tc.pattern, Width: 32, Steps: 16}); err != nil {
					t.Fatal(err)
				}
				cur := tuner.DestParcels()
				deltas := make(map[int]int64)
				for d, n := range cur {
					if delta := n - prev[d]; delta > 0 {
						deltas[d] = delta
					}
				}
				prev = cur
				global, err := rt.CoalescingParams(b.ActionName())
				if err != nil {
					t.Fatal(err)
				}
				hot, stop := tuner.TickWindow(int64(i+1), overhead, deltas, global)
				if stop {
					t.Fatalf("window %d: stopped (err=%v)", i, tuner.Err())
				}
				if hot != len(tc.hot) {
					t.Errorf("window %d: %d hot destinations in %v, want %d", i, hot, deltas, len(tc.hot))
				}
			}
			if got := tuner.TrackedDests(); !slices.Equal(got, tc.hot) {
				t.Errorf("tracked %v, want %v", got, tc.hot)
			}
			for d := 0; d < localities; d++ {
				p, overridden, err := rt.CoalescingParamsDest(b.ActionName(), d)
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Contains(tc.hot, d); overridden != want {
					t.Errorf("dest %d overridden = %v (%s), want %v", d, overridden, p, want)
				}
			}
			for _, d := range tuner.Decisions() {
				if d.Dest != adaptive.GlobalDest && !slices.Contains(tc.hot, d.Dest) {
					t.Errorf("decision for dest %d: %s", d.Dest, d)
				}
			}
			if p, err := rt.CoalescingParams(b.ActionName()); err != nil || p.NParcels <= 1 {
				t.Errorf("the rest's NParcels did not rise: %s (err=%v)", p, err)
			}
		})
	}
}
