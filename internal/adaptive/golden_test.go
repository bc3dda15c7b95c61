package adaptive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
)

// The golden tables pin the hill-climb's decisions — every From, To and
// Reason — against synthetic overhead series, with no wall clock: each
// window is fed straight to the controller's per-window function.

// quiet marks a window with nothing to judge: the sampling loop makes no
// decision and forgets the previous overhead.
const quiet = -1.0

// globalSeries are the action-wide NParcels climbs. want has one entry
// per window: "-" when the window made no decision, else
// "<from>-><to> <reason>".
var globalSeries = []struct {
	name          string
	start, lo, hi int
	windows       []float64
	want          []string
}{
	{
		name:  "monotone improving",
		start: 1, lo: 1, hi: 1024,
		windows: []float64{0.50, 0.40, 0.30, 0.20},
		want: []string{
			"1->2 n_oh=0.5000 dir=+1",
			"2->4 n_oh=0.4000 dir=+1",
			"4->8 n_oh=0.3000 dir=+1",
			"8->16 n_oh=0.2000 dir=+1",
		},
	},
	{
		name:  "worsening after two moves",
		start: 1, lo: 1, hi: 1024,
		windows: []float64{0.50, 0.40, 0.50, 0.45, 0.40, 0.30},
		want: []string{
			"1->2 n_oh=0.5000 dir=+1",
			"2->4 n_oh=0.4000 dir=+1",
			"4->2 n_oh=0.5000 dir=-1", // worse: reverse
			"2->1 n_oh=0.4500 dir=-1", // better: keep going down
			"-",                       // better again, but 1 is the floor: pinned, now pointing up
			"1->2 n_oh=0.3000 dir=+1",
		},
	},
	{
		name:  "inside tolerance",
		start: 1, lo: 1, hi: 1024,
		windows: []float64{0.50, 0.505, 0.50, 0.495, 0.40},
		want: []string{
			"1->2 n_oh=0.5000 dir=+1",
			"-", // +1 %: noise, hold
			"-", // judged against the refreshed 0.505
			"-",
			"2->4 n_oh=0.4000 dir=+1",
		},
	},
	{
		name:  "climbing into MaxNParcels and bouncing",
		start: 4, lo: 1, hi: 12,
		windows: []float64{0.50, 0.40, 0.30, 0.20, 0.30},
		want: []string{
			"4->8 n_oh=0.5000 dir=+1",
			"8->12 n_oh=0.4000 dir=-1", // clamped: the reason carries the direction after the bounce
			"12->6 n_oh=0.3000 dir=-1",
			"6->3 n_oh=0.2000 dir=-1",
			"3->6 n_oh=0.3000 dir=+1",
		},
	},
	{
		name:  "pinned at MaxNParcels",
		start: 8, lo: 1, hi: 16,
		windows: []float64{0.50, 0.40, 0.30},
		want: []string{
			"8->16 n_oh=0.5000 dir=+1",
			"-", // 32 clamps back to 16: pinned, now pointing down
			"16->8 n_oh=0.3000 dir=-1",
		},
	},
	{
		name:  "halving into MinNParcels and bouncing",
		start: 8, lo: 3, hi: 1024,
		windows: []float64{0.30, 0.50, 0.40, 0.30, 0.20},
		want: []string{
			"8->16 n_oh=0.3000 dir=+1",
			"16->8 n_oh=0.5000 dir=-1",
			"8->4 n_oh=0.4000 dir=-1",
			"4->3 n_oh=0.3000 dir=+1", // 2 clamps to 3
			"3->6 n_oh=0.2000 dir=+1",
		},
	},
	{
		name:  "quiet reset in the middle",
		start: 1, lo: 1, hi: 1024,
		windows: []float64{0.50, 0.40, quiet, 0.90, 0.80},
		want: []string{
			"1->2 n_oh=0.5000 dir=+1",
			"2->4 n_oh=0.4000 dir=+1",
			"-",
			"4->8 n_oh=0.9000 dir=+1", // judged fresh: 0.90 after 0.40 would have reversed
			"8->16 n_oh=0.8000 dir=+1",
		},
	},
}

// TestGoldenGlobalClimb runs every series through MultiTuner's
// per-window method under uniform traffic, where no destination is hot
// and the rest is all of it, so its share of the overhead is the whole
// window's. The tuner climbs NParcels within [minNParcels, MaxNParcels];
// the series' own bounds reach the clamps. A quiet window sends nothing.
func TestGoldenGlobalClimb(t *testing.T) {
	uniform := map[int]int64{0: 50, 1: 50}
	for _, tc := range globalSeries {
		t.Run("MultiTuner.tick/"+tc.name, func(t *testing.T) {
			rt := newToyRuntime(t, coalescing.Params{NParcels: tc.start, Interval: time.Millisecond})
			tuner := NewMultiTuner(rt, toy.Action, MultiTunerConfig{MaxNParcels: tc.hi})
			tuner.rest.lo = int64(tc.lo) // minNParcels is 1: a higher floor reaches a clamp between halvings
			for i, oh := range tc.windows {
				deltas := uniform
				if oh == quiet {
					deltas = nil
				}
				g, _ := rt.CoalescingParams(toy.Action)
				made := tuner.DecisionCount()
				if _, stop := tuner.tick(int64(i+1), oh, deltas, g); stop {
					t.Fatalf("window %d: stopped (err=%v)", i, tuner.Err())
				}
				got := "-"
				if ds := tuner.Decisions(); tuner.DecisionCount() > made {
					d := ds[len(ds)-1]
					got = fmt.Sprintf("%d->%d %s", d.From.NParcels, d.To.NParcels, d.Reason)
				}
				if got != tc.want[i] {
					t.Errorf("window %d (oh=%v): got %q, want %q", i, oh, got, tc.want[i])
				}
			}
		})
	}
}

// destSeries are one destination's coordinate descent, fed through
// destClimb.step. want has one entry per window: "-" for no move, else
// "n=<NParcels> iv=<Interval> <reason>". The reason names the knob and
// direction the climb is on after the step, so a move that exhausts
// KnobPeriod reports the knob it rotated to.
var destSeries = []struct {
	name    string
	start   coalescing.Params
	ivCap   time.Duration
	knob    int
	dir     int
	windows []float64
	want    []string
}{
	{
		name:  "n: two held windows rotate to interval",
		start: coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobNParcels, dir: +1,
		windows: []float64{0.50, 0.50, 0.505, 0.40, 0.30},
		want: []string{
			"n=16 iv=200µs d_oh=0.5000 knob=n dir=+1",
			"-",
			"-", // second hold: rotate
			"n=16 iv=100µs d_oh=0.4000 knob=interval dir=-1",
			"n=16 iv=50µs d_oh=0.3000 knob=interval dir=-1",
		},
	},
	{
		name:  "interval: two held windows rotate to n",
		start: coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobInterval, dir: -1,
		windows: []float64{0.50, 0.50, 0.50, 0.40},
		want: []string{
			"n=8 iv=100µs d_oh=0.5000 knob=interval dir=-1",
			"-",
			"-",
			"n=16 iv=100µs d_oh=0.4000 knob=n dir=+1",
		},
	},
	{
		name:  "one held window does not rotate; a judged one clears it",
		start: coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobNParcels, dir: +1,
		windows: []float64{0.50, 0.50, 0.40, 0.40, 0.30},
		want: []string{
			"n=16 iv=200µs d_oh=0.5000 knob=n dir=+1",
			"-",
			"n=32 iv=200µs d_oh=0.4000 knob=n dir=+1",
			"-", // holds restarted at one: still on n
			"n=64 iv=200µs d_oh=0.3000 knob=interval dir=-1", // third move on n: KnobPeriod
		},
	},
	{
		name:  "n: pinned at MaxNParcels rotates",
		start: coalescing.Params{NParcels: 1024, Interval: 200 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobNParcels, dir: +1,
		windows: []float64{0.50, 0.40},
		want: []string{
			"-",
			"n=1024 iv=100µs d_oh=0.4000 knob=interval dir=-1",
		},
	},
	{
		name:  "interval: pinned at MinInterval rotates",
		start: coalescing.Params{NParcels: 8, Interval: time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobInterval, dir: -1,
		windows: []float64{0.50, 0.40},
		want: []string{
			"-",
			"n=16 iv=1µs d_oh=0.4000 knob=n dir=+1",
		},
	},
	{
		name:  "KnobPeriod moves rotate, worse reverses on the new knob",
		start: coalescing.Params{NParcels: 2, Interval: 400 * time.Microsecond},
		ivCap: 400 * time.Microsecond, knob: knobNParcels, dir: +1,
		windows: []float64{0.50, 0.40, 0.30, 0.20, 0.30, 0.25, 0.20},
		want: []string{
			"n=4 iv=400µs d_oh=0.5000 knob=n dir=+1",
			"n=8 iv=400µs d_oh=0.4000 knob=n dir=+1",
			"n=16 iv=400µs d_oh=0.3000 knob=interval dir=-1", // third move: rotated
			"n=16 iv=200µs d_oh=0.2000 knob=interval dir=-1",
			"n=16 iv=400µs d_oh=0.3000 knob=interval dir=+1", // worse: reverse, back up to the cap
			"-", // 800µs clamps to the cap: pinned, rotate to n
			"n=32 iv=400µs d_oh=0.2000 knob=n dir=+1",
		},
	},
	{
		name:  "interval: ivCap is the ceiling",
		start: coalescing.Params{NParcels: 8, Interval: 100 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobInterval, dir: +1,
		windows: []float64{0.50, 0.40, 0.30},
		want: []string{
			"n=8 iv=200µs d_oh=0.5000 knob=interval dir=+1",
			"-", // 400µs clamps to 200µs: pinned, rotate to n
			"n=16 iv=200µs d_oh=0.3000 knob=n dir=+1",
		},
	},
	{
		name:  "quiet reset: next window is judged fresh and keeps direction",
		start: coalescing.Params{NParcels: 8, Interval: 200 * time.Microsecond},
		ivCap: 200 * time.Microsecond, knob: knobNParcels, dir: +1,
		windows: []float64{0.50, quiet, 0.90},
		want: []string{
			"n=16 iv=200µs d_oh=0.5000 knob=n dir=+1",
			"-",
			"n=32 iv=200µs d_oh=0.9000 knob=n dir=+1",
		},
	},
}

func TestGoldenDestClimb(t *testing.T) {
	cfg := MultiTunerConfig{}.withDefaults()
	for _, tc := range destSeries {
		t.Run(tc.name, func(t *testing.T) {
			cl := newDestClimb(tc.start, tc.ivCap, cfg.MaxNParcels, tc.knob, tc.dir)
			for i, oh := range tc.windows {
				got := "-"
				if oh == quiet {
					cl.c.reset() // what tick does with a quiet or cold window
				} else if next, reason, moved := cl.step(oh); moved {
					got = fmt.Sprintf("n=%d iv=%v %s", next.NParcels, next.Interval, reason)
					cl.params = next
				}
				if got != tc.want[i] {
					t.Errorf("window %d (oh=%v): got %q, want %q", i, oh, got, tc.want[i])
				}
			}
		})
	}
}
