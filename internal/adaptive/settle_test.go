package adaptive

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
	"repro/internal/runtime"
)

// The settle tests drive MultiTuner.tick window by window, with no clock,
// through a trace shaped like the taskgraph workload's: each phase of the
// graph cycle lasts about one tuner window, so the Eq. 4 overhead cycles
// through three levels window by window, and NParcels moves it only a
// little.

// phaseLevels are the three Eq. 4 levels the trace cycles through.
var phaseLevels = [3]float64{0.08, 0.20, 0.35}

// traceOverhead is window i's overhead under NParcels n: the phase's
// level, raised by up to a few per cent the farther n is from 8.
func traceOverhead(i int, n int) float64 {
	d := math.Log2(float64(n)) - 3
	return phaseLevels[i%len(phaseLevels)] * (1 + 0.01*d*d)
}

// settleHarness feeds windows to one tuner over uniform traffic, where the
// rest is all of it and climbs the action-wide NParcels.
type settleHarness struct {
	t     *testing.T
	tuner *MultiTuner
	rt    *runtime.Runtime
	seq   int64
	// seen is what the harness fed under each NParcels: the count and
	// the sum of the overheads.
	seen map[int][2]float64
}

func newSettleHarness(t *testing.T) *settleHarness {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
	return &settleHarness{
		t:     t,
		tuner: NewMultiTuner(rt, toy.Action, MultiTunerConfig{MaxNParcels: 32}),
		rt:    rt,
		seen:  make(map[int][2]float64),
	}
}

// window feeds one window whose overhead is oh(NParcels in force), or a
// quiet one when oh is nil, and returns the decision it made: "-" for
// none, else "<from>-><to> <reason>".
func (h *settleHarness) window(oh func(n int) float64) string {
	h.t.Helper()
	h.seq++
	g, _ := h.rt.CoalescingParams(toy.Action)
	var deltas map[int]int64
	var o float64
	if oh != nil {
		deltas = map[int]int64{0: 50, 1: 50}
		o = oh(g.NParcels)
		s := h.seen[g.NParcels]
		h.seen[g.NParcels] = [2]float64{s[0] + 1, s[1] + o}
	}
	made := h.tuner.DecisionCount()
	if _, stop := h.tuner.tick(h.seq, o, deltas, g); stop {
		h.t.Fatalf("window %d: stopped (err=%v)", h.seq, h.tuner.Err())
	}
	if h.tuner.DecisionCount() == made {
		return "-"
	}
	ds := h.tuner.Decisions()
	d := ds[len(ds)-1]
	return fmt.Sprintf("%d->%d %s", d.From.NParcels, d.To.NParcels, d.Reason)
}

// settle feeds the taskgraph-shaped trace until the climb settles, at
// most within windows, and returns the NParcels it settled on.
func (h *settleHarness) settle(within int) int {
	h.t.Helper()
	for i := 0; i < within; i++ {
		i := i
		if got := h.window(func(n int) float64 { return traceOverhead(i, n) }); strings.Contains(got, " settled:") {
			p, _ := h.rt.CoalescingParams(toy.Action)
			return p.NParcels
		}
	}
	h.t.Fatalf("no settle within %d windows: %v", within, h.tuner.Decisions())
	return 0
}

// settleWithin is how many windows of the taskgraph-shaped trace the
// climb may take to settle: two reversals per three-window cycle reach
// settleReversals in 36 windows, and the rest is slack.
const settleWithin = 60

func TestClimbSettlesOnTheLowestMeanValue(t *testing.T) {
	h := newSettleHarness(t)
	got := h.settle(settleWithin)

	// The settled value is the lowest mean among the values the trace
	// held for settleMinWindows windows or more.
	want, wantMean := 0, math.Inf(1)
	for n, s := range h.seen {
		if mean := s[1] / s[0]; s[0] >= settleMinWindows && (mean < wantMean || mean == wantMean && n < want) {
			want, wantMean = n, mean
		}
	}
	if got != want {
		t.Fatalf("settled on NParcels %d, want %d, the lowest mean (%.4f) of %v", got, want, wantMean, h.seen)
	}
	t.Logf("settled on NParcels %d after %d windows (mean %.4f)", got, h.seq, wantMean)

	// The phases keep cycling, inside the band the settled value saw:
	// nothing moves.
	for i := 0; i < 200; i++ {
		i := i
		if d := h.window(func(n int) float64 { return traceOverhead(i, n) }); d != "-" {
			t.Fatalf("window %d after the settle: decision %q", i, d)
		}
	}
}

func TestClimbUnsettlesOnASustainedShift(t *testing.T) {
	h := newSettleHarness(t)
	at := h.settle(settleWithin)

	// Every phase half a unit higher is outside the settled band, which
	// spans the three phases: a run shorter than unsettleWindows holds,
	// and an in-band window restarts the count.
	shifted := func(i int) func(n int) float64 {
		return func(n int) float64 { return 0.5 + traceOverhead(i, n) }
	}
	for i := 0; i < unsettleWindows-1; i++ {
		if d := h.window(shifted(i)); d != "-" {
			t.Fatalf("outlier window %d: decision %q", i, d)
		}
	}
	if d := h.window(func(n int) float64 { return traceOverhead(0, n) }); d != "-" {
		t.Fatalf("in-band window: decision %q", d)
	}
	for i := 0; i < unsettleWindows-1; i++ {
		if d := h.window(shifted(i)); d != "-" {
			t.Fatalf("shifted window %d: decision %q, want the run restarted by the in-band window", i, d)
		}
	}
	d := h.window(shifted(unsettleWindows - 1))
	if want := fmt.Sprintf("%d->%d unsettled:", at, at); !strings.HasPrefix(d, want) {
		t.Fatalf("window %d of the shift: decision %q, want %q...", unsettleWindows, d, want)
	}
	// Unsettled, the climb moves again from the settled value.
	if d := h.window(shifted(0)); !strings.HasPrefix(d, fmt.Sprintf("%d->", at)) || strings.Contains(d, "settled") {
		t.Fatalf("first window after the unsettle: decision %q, want a move from %d", d, at)
	}
}

func TestQuietWindowsKeepASettledClimb(t *testing.T) {
	h := newSettleHarness(t)
	at := h.settle(settleWithin)
	for i := 0; i < 200; i++ {
		if d := h.window(nil); d != "-" {
			t.Fatalf("quiet window %d: decision %q", i, d)
		}
		if i%10 == 9 {
			// A busy window now and then, in the band: still settled.
			i := i
			if d := h.window(func(n int) float64 { return traceOverhead(i, n) }); d != "-" {
				t.Fatalf("busy window after %d quiet ones: decision %q", i+1, d)
			}
		}
	}
	if p, _ := h.rt.CoalescingParams(toy.Action); p.NParcels != at {
		t.Errorf("NParcels = %d after the quiet spell, want the settled %d", p.NParcels, at)
	}
	if !h.tuner.rest.isSettled {
		t.Error("the quiet spell unsettled the climb")
	}
}

// TestHotDestinationClimbSettles: a hot destination's climb, the same
// climb on a rotating knob, settles the same way and then holds.
func TestHotDestinationClimbSettles(t *testing.T) {
	rt := newToyRuntime(t, coalescing.Params{NParcels: 4, Interval: time.Millisecond})
	tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{MaxNParcels: 32})
	g, _ := rt.CoalescingParams(toy.Action)
	deltas := map[int]int64{0: 10, 1: 90}
	feed := func(seq int64, i int) bool {
		p, _, _ := rt.CoalescingParamsDest(toy.Action, 1)
		made := tuner.DecisionCount()
		if _, stop := tuner.tick(seq, traceOverhead(i, p.NParcels)/0.9, deltas, g); stop {
			t.Fatalf("window %d: stopped (err=%v)", seq, tuner.Err())
		}
		return tuner.DecisionCount() > made
	}
	seq, settledAt := int64(0), int64(0)
	for i := 0; i < 3*settleWithin && settledAt == 0; i++ {
		seq++
		feed(seq, i)
		if ds := tuner.Decisions(); len(ds) > 0 && strings.HasPrefix(ds[len(ds)-1].Reason, "settled:") {
			settledAt = seq
		}
	}
	if settledAt == 0 {
		t.Fatalf("destination 1 never settled: %v", tuner.Decisions())
	}
	for i := 0; i < 200; i++ {
		seq++
		if feed(seq, i) {
			ds := tuner.Decisions()
			t.Fatalf("window %d after the settle: decision %v", i, ds[len(ds)-1])
		}
	}
}

// TestSettleKeepsTheCallersInterval: the rest owns the action-wide
// NParcels only, so a settle on a value whose band was seen before a
// caller changed the Interval installs that NParcels under the caller's
// Interval.
func TestSettleKeepsTheCallersInterval(t *testing.T) {
	h := newSettleHarness(t)
	const changed = 3 * time.Millisecond
	// The trace reads higher under the caller's Interval, so the bands
	// seen before the change have the lowest means.
	oh := func(i int) func(n int) float64 {
		return func(n int) float64 {
			if p, _ := h.rt.CoalescingParams(toy.Action); p.Interval == changed {
				return 1.5 * traceOverhead(i, n)
			}
			return traceOverhead(i, n)
		}
	}
	for i := 0; i < 3*settleWithin; i++ {
		if i == 30 {
			p, _ := h.rt.CoalescingParams(toy.Action)
			p.Interval = changed
			if err := h.rt.SetCoalescingParams(toy.Action, p); err != nil {
				t.Fatal(err)
			}
		}
		if d := h.window(oh(i)); strings.Contains(d, " settled:") {
			if p, _ := h.rt.CoalescingParams(toy.Action); p.Interval != changed {
				t.Fatalf("the settle (%s) set the Interval to %v, want the caller's %v", d, p.Interval, changed)
			}
			return
		}
	}
	t.Fatalf("no settle within %d windows: %v", 3*settleWithin, h.tuner.Decisions())
}
