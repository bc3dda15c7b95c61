package adaptive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
)

func quickModel() network.CostModel {
	return network.CostModel{
		SendOverhead: 5 * time.Microsecond,
		RecvOverhead: 4 * time.Microsecond,
		Latency:      5 * time.Microsecond,
	}
}

func newToyRuntime(t *testing.T, params coalescing.Params) *runtime.Runtime {
	t.Helper()
	rt := runtime.New(runtime.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		CostModel:          quickModel(),
	})
	t.Cleanup(rt.Shutdown)
	toy.Register(rt)
	if err := rt.EnableCoalescing(toy.Action, params); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestDefaultLadder(t *testing.T) {
	l := DefaultLadder(16, time.Millisecond)
	if len(l) != 5 {
		t.Fatalf("ladder size = %d", len(l))
	}
	for i, want := range []int{1, 2, 4, 8, 16} {
		if l[i].NParcels != want || l[i].Interval != time.Millisecond {
			t.Errorf("ladder[%d] = %+v", i, l[i])
		}
	}
}

func TestTunerConfigDefaults(t *testing.T) {
	c := TunerConfig{}.withDefaults()
	if c.SampleInterval <= 0 || c.MinNParcels != 1 || c.MaxNParcels != 1024 || c.Tolerance <= 0 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestOverheadTunerImprovesToyRun(t *testing.T) {
	// Start from the worst static choice (no coalescing); the tuner must
	// raise NParcels while the burst runs.
	start := coalescing.Params{NParcels: 1, Interval: 2 * time.Millisecond}
	rt := newToyRuntime(t, start)
	tuner := NewOverheadTuner(rt, toy.Action, TunerConfig{
		SampleInterval: 15 * time.Millisecond,
		MaxNParcels:    256,
	})
	tuner.Start()
	defer tuner.Stop()
	_, err := toy.RunOn(rt, toy.Config{
		Localities:      2,
		ParcelsPerPhase: 4000,
		Phases:          3,
		Params:          start,
		CostModel:       quickModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tuner.Stop()
	final, err := rt.CoalescingParams(toy.Action)
	if err != nil {
		t.Fatal(err)
	}
	if final.NParcels <= start.NParcels {
		t.Errorf("tuner never raised NParcels: final %+v (decisions: %v)", final, tuner.Decisions())
	}
	if len(tuner.Decisions()) == 0 {
		t.Error("no decisions recorded")
	}
	for _, d := range tuner.Decisions() {
		// Zero is legitimate: a busy window can see no background work
		// (e.g. every flush was full-driven before the sampler fired).
		if d.Overhead < 0 || d.Overhead > 1 {
			t.Errorf("decision overhead = %v", d.Overhead)
		}
		if d.String() == "" {
			t.Error("empty decision string")
		}
	}
}

// TestTunerLifecycle: Stop returns however often Start was called before
// it — never, once or twice — and one loop runs at most.
func TestTunerLifecycle(t *testing.T) {
	type startStopper interface {
		Start()
		Stop()
	}
	constructors := map[string]func(rt *runtime.Runtime) startStopper{
		"OverheadTuner": func(rt *runtime.Runtime) startStopper {
			return NewOverheadTuner(rt, toy.Action, TunerConfig{SampleInterval: time.Millisecond})
		},
		"MultiTuner": func(rt *runtime.Runtime) startStopper {
			return NewMultiTuner(rt, toy.Action, MultiTunerConfig{SampleInterval: time.Millisecond})
		},
	}
	sequences := map[string]func(startStopper){
		"Stop before Start": func(c startStopper) { c.Stop(); c.Start(); c.Stop() },
		"Start Stop Stop":   func(c startStopper) { c.Start(); c.Stop(); c.Stop() },
		"Start Start Stop":  func(c startStopper) { c.Start(); c.Start(); c.Stop() },
	}
	for cname, construct := range constructors {
		for sname, sequence := range sequences {
			t.Run(cname+"/"+sname, func(t *testing.T) {
				rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
				done := make(chan struct{})
				go func() {
					defer close(done)
					sequence(construct(rt))
				}()
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					t.Fatal("Stop did not return")
				}
			})
		}
	}
}

func TestOverheadTunerQuietWindowsMakeNoDecisions(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
	tuner := NewOverheadTuner(rt, toy.Action, TunerConfig{SampleInterval: 5 * time.Millisecond})
	tuner.Start()
	time.Sleep(50 * time.Millisecond) // no traffic at all
	tuner.Stop()
	if n := len(tuner.Decisions()); n != 0 {
		t.Errorf("made %d decisions with no traffic", n)
	}
}

func TestPICSTunerConvergesOnSyntheticCosts(t *testing.T) {
	// Synthetic iteration times with a minimum at NParcels=4 — the tuner
	// must converge there in a handful of decisions, like the paper's
	// PICS reference (5 decisions).
	rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
	ladder := DefaultLadder(32, time.Millisecond)
	tuner, err := NewPICSTuner(rt, toy.Action, ladder)
	if err != nil {
		t.Fatal(err)
	}
	cost := map[int]time.Duration{
		1: 100 * time.Millisecond, 2: 60 * time.Millisecond, 4: 40 * time.Millisecond,
		8: 55 * time.Millisecond, 16: 80 * time.Millisecond, 32: 120 * time.Millisecond,
	}
	for i := 0; i < 20 && !tuner.Converged(); i++ {
		cur, err := rt.CoalescingParams(toy.Action)
		if err != nil {
			t.Fatal(err)
		}
		tuner.OnIteration(cost[cur.NParcels])
	}
	if !tuner.Converged() {
		t.Fatal("tuner never converged")
	}
	if best := tuner.Best(); best.NParcels != 4 {
		t.Errorf("converged to %+v, want NParcels=4 (log: %v)", best, tuner.DecisionLog())
	}
	if d := tuner.Decisions(); d == 0 || d > 8 {
		t.Errorf("decisions = %d, want a handful", d)
	}
	// Runtime left at the best candidate.
	if p, _ := rt.CoalescingParams(toy.Action); p.NParcels != 4 {
		t.Errorf("runtime params = %+v", p)
	}
	// Post-convergence iterations change nothing.
	before := tuner.Decisions()
	tuner.OnIteration(time.Second)
	if tuner.Decisions() != before {
		t.Error("decision after convergence")
	}
}

func TestPICSTunerMonotoneImprovementPicksLargest(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
	ladder := DefaultLadder(8, time.Millisecond)
	tuner, err := NewPICSTuner(rt, toy.Action, ladder)
	if err != nil {
		t.Fatal(err)
	}
	cost := map[int]time.Duration{
		1: 100 * time.Millisecond, 2: 80 * time.Millisecond,
		4: 60 * time.Millisecond, 8: 40 * time.Millisecond,
	}
	for i := 0; i < 20 && !tuner.Converged(); i++ {
		cur, _ := rt.CoalescingParams(toy.Action)
		tuner.OnIteration(cost[cur.NParcels])
	}
	if best := tuner.Best(); best.NParcels != 8 {
		t.Errorf("converged to %+v, want ladder top", best)
	}
}

func TestPICSTunerEmptyLadder(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 1, Interval: time.Millisecond})
	if _, err := NewPICSTuner(rt, toy.Action, nil); err == nil {
		t.Error("empty ladder should fail")
	}
}

func TestPICSTunerRequiresCoalescing(t *testing.T) {
	rt := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 1, CostModel: quickModel()})
	defer rt.Shutdown()
	if _, err := NewPICSTuner(rt, "uncoalesced", DefaultLadder(4, time.Millisecond)); err == nil {
		t.Error("tuner on uncoalesced action should fail")
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{
		Overhead: 0.5,
		From:     coalescing.Params{NParcels: 1, Interval: time.Millisecond},
		To:       coalescing.Params{NParcels: 2, Interval: time.Millisecond},
		Reason:   "test",
	}
	if s := d.String(); !strings.Contains(s, "nparcels=1") || !strings.Contains(s, "nparcels=2") {
		t.Errorf("String = %q", s)
	}
}
