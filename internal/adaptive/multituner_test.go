package adaptive

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
)

func TestDecisionLogRingBound(t *testing.T) {
	l := newDecisionLog(4)
	for i := 0; i < 10; i++ {
		l.add(Decision{Dest: GlobalDest, Reason: fmt.Sprintf("d%d", i)})
	}
	if got := l.count(); got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	if got := l.droppedCount(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	ds := l.all()
	if len(ds) != 4 {
		t.Fatalf("retained %d, want 4", len(ds))
	}
	for i, d := range ds {
		if want := fmt.Sprintf("d%d", 6+i); d.Reason != want {
			t.Errorf("retained[%d] = %q, want %q (oldest first)", i, d.Reason, want)
		}
	}
}

func TestDecisionLogDefaultCap(t *testing.T) {
	if l := newDecisionLog(0); l.capN != DefaultMaxDecisions {
		t.Errorf("cap = %d, want %d", l.capN, DefaultMaxDecisions)
	}
}

func TestOverheadTunerErrSurfacesRuntimeFailure(t *testing.T) {
	// The tuner watches an action that never had coalescing enabled: the
	// first busy window must terminate the loop with a recorded error
	// decision instead of vanishing silently.
	rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
	tuner := NewOverheadTuner(rt, "never-coalesced", TunerConfig{
		SampleInterval: 5 * time.Millisecond,
		MinWindowTasks: 1,
	})
	tuner.Start()
	if _, err := toy.RunOn(rt, toy.Config{
		Localities:      2,
		ParcelsPerPhase: 500,
		Phases:          1,
		Params:          coalescing.Params{NParcels: 4, Interval: time.Millisecond},
		CostModel:       quickModel(),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tuner.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	if tuner.Err() == nil {
		t.Fatal("Err() == nil after sampling an uncoalesced action")
	}
	ds := tuner.Decisions()
	if len(ds) == 0 {
		t.Fatal("no terminal decision recorded")
	}
	last := ds[len(ds)-1]
	if !strings.Contains(last.Reason, "terminated:") || last.Dest != GlobalDest {
		t.Errorf("terminal decision = %+v", last)
	}
	if tuner.DecisionCount() != int64(len(ds)) {
		t.Errorf("DecisionCount = %d, retained %d", tuner.DecisionCount(), len(ds))
	}
}

func TestMultiTunerErrSurfacesRuntimeFailure(t *testing.T) {
	// The same uncoalesced action under the MultiTuner: it has no
	// coalescers, so no window carries per-destination parcels, and the
	// runtime's refusal must still terminate the loop with an error.
	rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
	tuner := NewMultiTuner(rt, "never-coalesced", MultiTunerConfig{
		SampleInterval: 5 * time.Millisecond,
		MinWindowTasks: 1,
	})
	tuner.Start()
	if _, err := toy.RunOn(rt, toy.Config{
		Localities:      2,
		ParcelsPerPhase: 500,
		Phases:          1,
		Params:          coalescing.Params{NParcels: 4, Interval: time.Millisecond},
		CostModel:       quickModel(),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tuner.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	if tuner.Err() == nil {
		t.Fatal("Err() == nil after sampling an uncoalesced action")
	}
	ds := tuner.Decisions()
	if len(ds) == 0 {
		t.Fatal("no terminal decision recorded")
	}
	last := ds[len(ds)-1]
	if !strings.Contains(last.Reason, "terminated:") || last.Dest != GlobalDest {
		t.Errorf("terminal decision = %+v", last)
	}
	if tuner.DecisionCount() != int64(len(ds)) {
		t.Errorf("DecisionCount = %d, retained %d", tuner.DecisionCount(), len(ds))
	}
}

func TestPICSTunerEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		max  int // DefaultLadder(max, ...)
		cost func(n int) time.Duration
		// wantBest is the expected converged NParcels, wantMaxDecisions
		// an upper bound on decision count.
		wantBest         int
		wantMaxDecisions int
	}{
		{
			name:             "single candidate ladder",
			max:              1,
			cost:             func(int) time.Duration { return time.Millisecond },
			wantBest:         1,
			wantMaxDecisions: 0,
		},
		{
			name:             "monotone worsening settles at bottom",
			max:              16,
			cost:             func(n int) time.Duration { return time.Duration(n) * time.Millisecond },
			wantBest:         1,
			wantMaxDecisions: 2,
		},
		{
			name:             "monotone improving settles at top",
			max:              16,
			cost:             func(n int) time.Duration { return time.Duration(32-n) * time.Millisecond },
			wantBest:         16,
			wantMaxDecisions: 8,
		},
		{
			name:             "tie on best time keeps the first",
			max:              8,
			cost:             func(int) time.Duration { return time.Millisecond },
			wantBest:         1,
			wantMaxDecisions: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
			tuner, err := NewPICSTuner(rt, toy.Action, DefaultLadder(tc.max, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30 && !tuner.Converged(); i++ {
				cur, err := rt.CoalescingParams(toy.Action)
				if err != nil {
					t.Fatal(err)
				}
				tuner.OnIteration(tc.cost(cur.NParcels))
			}
			if !tuner.Converged() {
				t.Fatal("never converged")
			}
			if best := tuner.Best(); best.NParcels != tc.wantBest {
				t.Errorf("best = %+v, want NParcels=%d (log: %v)", best, tc.wantBest, tuner.DecisionLog())
			}
			if d := tuner.Decisions(); d > tc.wantMaxDecisions {
				t.Errorf("decisions = %d, want <= %d", d, tc.wantMaxDecisions)
			}
			if p, _ := rt.CoalescingParams(toy.Action); p.NParcels != tc.wantBest {
				t.Errorf("runtime left at %+v", p)
			}
		})
	}
}

func TestMultiTunerConfigDefaults(t *testing.T) {
	c := MultiTunerConfig{}.withDefaults()
	if c.MaxTrackedDests != 8 || c.HotShare != 0.10 || c.SkewFactor != 2 ||
		c.IdleWindows != 10 {
		t.Errorf("defaults = %+v", c)
	}
}

// tickWindow feeds one synthetic sampling window to the tuner's decision
// core, bypassing the timer loop for determinism.
func tickWindow(t *MultiTuner, seq int64, overhead float64, deltas map[int]int64, global coalescing.Params) (int, bool) {
	var total int64
	for _, d := range deltas {
		total += d
	}
	return t.tickDests(seq, overhead, total, deltas, global)
}

func TestMultiTunerTracksHotDestAndInstallsOverride(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{MinDestParcels: 1})
	g, _ := rt.CoalescingParams(toy.Action)

	// Dest 1 carries 90% of the traffic: it must be tracked and get an
	// override; dest 0 stays on the global policy.
	deltas := map[int]int64{0: 10, 1: 90}
	overheads := []float64{0.5, 0.4, 0.3, 0.25, 0.2}
	for i, oh := range overheads {
		hot, stop := tickWindow(tuner, int64(i+1), oh, deltas, g)
		if stop {
			t.Fatalf("window %d: unexpected stop (err=%v)", i, tuner.Err())
		}
		if hot != 1 {
			t.Fatalf("window %d: hot = %d, want 1", i, hot)
		}
	}
	if dests := tuner.TrackedDests(); len(dests) != 1 || dests[0] != 1 {
		t.Fatalf("tracked = %v, want [1]", dests)
	}
	p, overridden, err := rt.CoalescingParamsDest(toy.Action, 1)
	if err != nil || !overridden {
		t.Fatalf("dest 1 override missing: %+v %v %v", p, overridden, err)
	}
	if p.NParcels <= global.NParcels {
		t.Errorf("improving overhead never raised hot dest NParcels: %+v", p)
	}
	if _, overridden, _ := rt.CoalescingParamsDest(toy.Action, 0); overridden {
		t.Error("cold dest 0 got an override")
	}
	for _, d := range tuner.Decisions() {
		if d.Dest != 1 {
			t.Errorf("decision for dest %d, want only dest 1: %+v", d.Dest, d)
		}
	}
}

func TestMultiTunerEvictsColdDest(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{MinDestParcels: 1, IdleWindows: 3})
	g, _ := rt.CoalescingParams(toy.Action)

	seq := int64(0)
	hotWin := map[int]int64{0: 5, 1: 95}
	for i := 0; i < 3; i++ {
		seq++
		tickWindow(tuner, seq, 0.5-float64(i)*0.1, hotWin, g)
	}
	if len(tuner.TrackedDests()) != 1 {
		t.Fatalf("tracked = %v", tuner.TrackedDests())
	}
	// Dest 1 goes silent: after IdleWindows quiet windows the override is
	// cleared and the climb state dropped.
	coldWin := map[int]int64{0: 50, 2: 50}
	for i := 0; i < 4; i++ {
		seq++
		tickWindow(tuner, seq, 0.5, coldWin, g)
	}
	if dests := tuner.TrackedDests(); len(dests) != 0 {
		t.Fatalf("tracked after cold = %v, want none", dests)
	}
	if _, overridden, _ := rt.CoalescingParamsDest(toy.Action, 1); overridden {
		t.Error("override survived eviction")
	}
	found := false
	for _, d := range tuner.Decisions() {
		if d.Dest == 1 && strings.Contains(d.Reason, "evicted: cold") {
			found = true
		}
	}
	if !found {
		t.Errorf("no eviction decision: %v", tuner.Decisions())
	}
}

func TestMultiTunerLRUEvictsBeyondCap(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{
		MinDestParcels: 1, MaxTrackedDests: 1, SkewFactor: 0.1, HotShare: 0.05,
	})
	g, _ := rt.CoalescingParams(toy.Action)

	// Two destinations above the bar with a cap of one: the least
	// recently hot one is evicted.
	tickWindow(tuner, 1, 0.5, map[int]int64{0: 60, 1: 40}, g)
	if dests := tuner.TrackedDests(); len(dests) != 1 {
		t.Fatalf("tracked = %v, want exactly 1", dests)
	}
}

func TestMultiTunerUniformTrafficFallsBackToGlobalClimb(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{MinDestParcels: 1})

	// Four equal destinations: nobody clears the 2× fair-share bar.
	deltas := map[int]int64{0: 25, 1: 25, 2: 25, 3: 25}
	for i := 1; i <= 3; i++ {
		g, _ := rt.CoalescingParams(toy.Action)
		hot, _ := tickWindow(tuner, int64(i), 0.5-float64(i)*0.1, deltas, g)
		if hot != 0 {
			t.Fatalf("window %d: hot = %d, want 0 under uniform traffic", i, hot)
		}
		if stop := tuner.tickGlobal(0.5-float64(i)*0.1, g); stop {
			t.Fatalf("window %d: global climb stopped (err=%v)", i, tuner.Err())
		}
	}
	if dests := tuner.TrackedDests(); len(dests) != 0 {
		t.Errorf("tracked = %v, want none", dests)
	}
	p, _ := rt.CoalescingParams(toy.Action)
	if p.NParcels <= global.NParcels {
		t.Errorf("global fallback never raised NParcels: %+v", p)
	}
}

func TestDestClimbIntervalNeverExceedsInheritedCap(t *testing.T) {
	cfg := MultiTunerConfig{}.withDefaults()
	start := coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond, MaxBufferBytes: 1}
	cl := &destClimb{params: start, ivCap: start.Interval, prevOH: -1, dir: +1, knob: knobInterval}
	oh := 0.5
	for i := 0; i < 40; i++ {
		// Alternate improving and worsening signals so both directions and
		// the noise-hold rotation are exercised.
		if i%3 == 0 {
			oh *= 0.9
		} else {
			oh *= 1.1
		}
		next, _, moved := cl.step(oh, cfg)
		if moved {
			if next.Interval > start.Interval {
				t.Fatalf("step %d raised interval to %v above cap %v", i, next.Interval, start.Interval)
			}
			cl.params = next
		}
	}
}
