package adaptive

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
	"repro/internal/runtime"
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

func TestMultiTunerErrSurfacesRuntimeFailure(t *testing.T) {
	// The tuner watches an action that never had coalescing enabled: it
	// has no coalescers, so no window carries per-destination parcels,
	// and the first busy window must still terminate the loop with a
	// recorded error decision instead of vanishing silently.
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
	tn := NewMultiTuner(nil, toy.Action, MultiTunerConfig{})
	if c := tn.cfg; c.SampleInterval != 50*time.Millisecond || c.MaxNParcels != 1024 || c.MinWindowTasks != 50 {
		t.Errorf("defaults = %+v", c)
	}
}

// tickWindow feeds one synthetic sampling window to the tuner's
// per-window method, bypassing the timer loop for determinism.
func tickWindow(t *MultiTuner, seq int64, overhead float64, deltas map[int]int64, global coalescing.Params) (int, bool) {
	return t.tick(seq, overhead, deltas, global)
}

func TestMultiTunerTracksHotDestAndInstallsOverride(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})
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
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})
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
	// Dest 1 goes silent: after idleWindows quiet windows the override is
	// cleared and the climb state dropped.
	coldWin := map[int]int64{0: 50, 2: 50}
	for i := 0; i < idleWindows; i++ {
		if dests := tuner.TrackedDests(); len(dests) != 1 {
			t.Fatalf("tracked after %d cold windows = %v, want [1]", i, dests)
		}
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
			if d.Overhead != 0 {
				t.Errorf("eviction overhead = %v, want 0: dest 1 sent nothing that window", d.Overhead)
			}
		}
	}
	if !found {
		t.Errorf("no eviction decision: %v", tuner.Decisions())
	}
}

func TestMultiTunerLRUEvictsBeyondCap(t *testing.T) {
	// One more locality than the tracking cap, and one more for the
	// background traffic.
	rt := runtime.New(runtime.Config{Localities: maxTrackedDests + 2, WorkersPerLocality: 1, CostModel: quickModel()})
	t.Cleanup(rt.Shutdown)
	toy.Register(rt)
	if err := rt.EnableCoalescing(toy.Action, coalescing.Params{NParcels: 1, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})
	g, _ := rt.CoalescingParams(toy.Action)

	// Destinations 0..maxTrackedDests each dominate one window in turn,
	// all within idleWindows: the one past the cap evicts the least
	// recently hot, destination 0.
	background := maxTrackedDests + 1
	for d := 0; d <= maxTrackedDests; d++ {
		if hot, stop := tickWindow(tuner, int64(d+1), 0.5, map[int]int64{d: 90, background: 10}, g); hot != 1 || stop {
			t.Fatalf("window %d: hot = %d, stop = %v (err=%v)", d, hot, stop, tuner.Err())
		}
	}
	dests := tuner.TrackedDests()
	if len(dests) != maxTrackedDests || dests[0] != 1 {
		t.Fatalf("tracked = %v, want 1..%d", dests, maxTrackedDests)
	}
	if _, overridden, _ := rt.CoalescingParamsDest(toy.Action, 0); overridden {
		t.Error("override survived eviction")
	}
	found := false
	for _, d := range tuner.Decisions() {
		if d.Dest == 0 && strings.Contains(d.Reason, "evicted: lru") {
			found = true
		}
	}
	if !found {
		t.Errorf("no LRU eviction decision: %v", tuner.Decisions())
	}
}

func TestMultiTunerUniformTrafficFallsBackToGlobalClimb(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})

	// Four equal destinations: nobody clears the 2× fair-share bar.
	deltas := map[int]int64{0: 25, 1: 25, 2: 25, 3: 25}
	for i := 1; i <= 3; i++ {
		g, _ := rt.CoalescingParams(toy.Action)
		hot, stop := tickWindow(tuner, int64(i), 0.5-float64(i)*0.1, deltas, g)
		if hot != 0 {
			t.Fatalf("window %d: hot = %d, want 0 under uniform traffic", i, hot)
		}
		if stop {
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

// globalDecisions returns the decisions that moved the action-wide
// parameters.
func globalDecisions(tuner *MultiTuner) []Decision {
	var out []Decision
	for _, d := range tuner.Decisions() {
		if d.Dest == GlobalDest {
			out = append(out, d)
		}
	}
	return out
}

func TestMultiTunerOverriddenTrafficLeavesGlobalAlone(t *testing.T) {
	global := coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	rt := newToyRuntime(t, global)
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})

	// Each destination dominates one window in turn and gets an override;
	// the other sends too little to judge.
	seq := int64(0)
	for _, deltas := range []map[int]int64{{0: 10, 1: 190}, {0: 190, 1: 10}} {
		seq++
		if hot, stop := tickWindow(tuner, seq, 0.5, deltas, global); hot != 1 || stop {
			t.Fatalf("window %d: hot = %d, stop = %v (err=%v)", seq, hot, stop, tuner.Err())
		}
	}
	for d := 0; d < 2; d++ {
		if _, overridden, _ := rt.CoalescingParamsDest(toy.Action, d); !overridden {
			t.Fatalf("dest %d has no override", d)
		}
	}
	// Now the traffic is even, so neither destination is hot, but both
	// overrides still carry all of it: no parcel uses the action-wide
	// NParcels, and nothing may move it.
	for i, oh := range []float64{0.5, 0.4, 0.3} {
		seq++
		if hot, stop := tickWindow(tuner, seq, oh, map[int]int64{0: 100, 1: 100}, global); hot != 0 || stop {
			t.Fatalf("even window %d: hot = %d, stop = %v (err=%v)", i, hot, stop, tuner.Err())
		}
	}
	if ds := globalDecisions(tuner); len(ds) != 0 {
		t.Errorf("action-wide decisions with every parcel on an override: %v", ds)
	}
	if p, _ := rt.CoalescingParams(toy.Action); p.NParcels != global.NParcels {
		t.Errorf("action-wide NParcels = %d, want %d", p.NParcels, global.NParcels)
	}
}

func TestMultiTunerRestKeepsItsBaselineBesideAHotDest(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})

	// Destination 1 is hot in every window; the first tracks it. Then
	// the rest, destination 0, sends 20 parcels, then too few to judge,
	// then 20 again under a higher overhead: its share worsens against
	// the second window's, so the rest's climb reverses. A baseline reset
	// in the third window would judge the fourth fresh and keep raising
	// NParcels instead.
	for i, w := range []struct {
		oh     float64
		deltas map[int]int64
	}{
		{0.50, map[int]int64{0: 5, 1: 200}},
		{0.50, map[int]int64{0: 20, 1: 200}},
		{0.50, map[int]int64{0: 5, 1: 200}},
		{0.60, map[int]int64{0: 20, 1: 200}},
	} {
		g, _ := rt.CoalescingParams(toy.Action)
		if hot, stop := tickWindow(tuner, int64(i+1), w.oh, w.deltas, g); hot != 1 || stop {
			t.Fatalf("window %d: hot = %d, stop = %v (err=%v)", i, hot, stop, tuner.Err())
		}
	}
	ds := globalDecisions(tuner)
	if len(ds) != 2 {
		t.Fatalf("action-wide decisions = %v, want a raise then a reversal", ds)
	}
	if ds[0].From.NParcels != 1 || ds[0].To.NParcels != 2 || !strings.HasSuffix(ds[0].Reason, "dir=+1") {
		t.Errorf("first decision = %v, want 1 -> 2 upward", ds[0])
	}
	if ds[1].From.NParcels != 2 || ds[1].To.NParcels != 1 || !strings.HasSuffix(ds[1].Reason, "dir=-1") {
		t.Errorf("second decision = %v, want 2 -> 1 reversed", ds[1])
	}
	if want := 0.60 * 20 / 220; math.Abs(ds[1].Overhead-want) > 1e-12 {
		t.Errorf("rest overhead = %v, want its share %v", ds[1].Overhead, want)
	}
}

func TestMultiTunerRestJudgedFreshWhenItsMembershipChanges(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{})

	// Window 1 tracks destination 1, so the rest's share there counts
	// destination 0 alone; from window 2 on destination 1 is never hot
	// again, and the window that evicts it hands its traffic back to the
	// rest. Each of those windows measured other traffic than the next
	// one, whose share (0.25 after 0.045, then 0.5 after 0.25) would
	// otherwise read as worse and turn the climb back down.
	windows := []map[int]int64{{0: 20, 1: 200}}
	for i := 0; i <= idleWindows; i++ {
		windows = append(windows, map[int]int64{0: 100, 1: 100})
	}
	for i, deltas := range windows {
		g, _ := rt.CoalescingParams(toy.Action)
		if _, stop := tickWindow(tuner, int64(i+1), 0.5, deltas, g); stop {
			t.Fatalf("window %d: stopped (err=%v)", i, tuner.Err())
		}
	}
	if dests := tuner.TrackedDests(); len(dests) != 0 {
		t.Fatalf("tracked = %v, want destination 1 evicted", dests)
	}
	var got []string
	for _, d := range globalDecisions(tuner) {
		got = append(got, fmt.Sprintf("%d->%d", d.From.NParcels, d.To.NParcels))
	}
	if want := []string{"1->2", "2->4", "4->8"}; !slices.Equal(got, want) {
		t.Errorf("action-wide moves = %v, want %v", got, want)
	}
}

func TestDestClimbIntervalNeverExceedsInheritedCap(t *testing.T) {
	cfg := MultiTunerConfig{}.withDefaults()
	start := coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond, MaxBufferBytes: 1}
	cl := newDestClimb(start, start.Interval, cfg.MaxNParcels, knobInterval, +1)
	oh := 0.5
	for i := 0; i < 40; i++ {
		// Alternate improving and worsening signals so both directions and
		// the noise-hold rotation are exercised.
		if i%3 == 0 {
			oh *= 0.9
		} else {
			oh *= 1.1
		}
		next, _, moved := cl.step(oh)
		if moved {
			if next.Interval > start.Interval {
				t.Fatalf("step %d raised interval to %v above cap %v", i, next.Interval, start.Interval)
			}
			cl.params = next
		}
	}
}
