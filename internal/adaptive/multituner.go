package adaptive

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// MultiTunerConfig configures a MultiTuner.
type MultiTunerConfig struct {
	// SampleInterval is the window length between decisions
	// (default 50ms).
	SampleInterval time.Duration
	// MinNParcels and MaxNParcels bound the NParcels search
	// (defaults 1 and 1024).
	MinNParcels, MaxNParcels int
	// MinInterval and MaxInterval bound the Interval search
	// (defaults 1µs and 5ms).
	MinInterval, MaxInterval time.Duration
	// Tolerance is the relative overhead change treated as noise
	// (default 0.02 = 2%).
	Tolerance float64
	// MinWindowTasks skips windows with fewer executed tasks
	// (default 50).
	MinWindowTasks int64
	// MaxTrackedDests caps how many destinations get their own climb;
	// beyond the cap the least-recently-hot destination is evicted back
	// to the global policy (default 8).
	MaxTrackedDests int
	// HotShare is the minimum fraction of the window's parcels a
	// destination must receive to be tuned independently (default 0.10).
	HotShare float64
	// SkewFactor is how many multiples of the fair share (1/active
	// destinations) a destination must carry to count as hot — under
	// uniform traffic no destination qualifies and the tuner falls back
	// to a global NParcels climb, matching OverheadTuner (default 2).
	SkewFactor float64
	// MinDestParcels is the minimum absolute parcels per window for a
	// destination to be tuned — guards the share test in quiet windows
	// (default 16).
	MinDestParcels int64
	// IdleWindows evicts a tracked destination after this many
	// consecutive windows below the hot threshold (default 10).
	IdleWindows int
	// KnobPeriod is how many moves a destination makes on one knob
	// before coordinate descent rotates to the other (default 3).
	KnobPeriod int
	// MaxDecisions caps the retained decision log (default
	// DefaultMaxDecisions).
	MaxDecisions int
}

func (c MultiTunerConfig) withDefaults() MultiTunerConfig {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 50 * time.Millisecond
	}
	if c.MinNParcels <= 0 {
		c.MinNParcels = 1
	}
	if c.MaxNParcels <= 0 {
		c.MaxNParcels = 1024
	}
	if c.MinInterval <= 0 {
		c.MinInterval = time.Microsecond
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = 5 * time.Millisecond
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.MinWindowTasks <= 0 {
		c.MinWindowTasks = 50
	}
	if c.MaxTrackedDests <= 0 {
		c.MaxTrackedDests = 8
	}
	if c.HotShare <= 0 {
		c.HotShare = 0.10
	}
	if c.SkewFactor <= 0 {
		c.SkewFactor = 2
	}
	if c.MinDestParcels <= 0 {
		c.MinDestParcels = 16
	}
	if c.IdleWindows <= 0 {
		c.IdleWindows = 10
	}
	if c.KnobPeriod <= 0 {
		c.KnobPeriod = 3
	}
	return c
}

// Knob indices for the coordinate descent.
const (
	knobNParcels = iota
	knobInterval
	knobCount
)

// destClimb is the per-destination hill-climb state.
type destClimb struct {
	params coalescing.Params // override currently installed
	// ivCap bounds the Interval knob at the global Interval the climb
	// started from: a hot destination's flushes should be full-driven,
	// and the Eq. 4 signal cannot see the latency cost of a longer
	// timer, so the climb only ever shortens it.
	ivCap   time.Duration
	prevOH  float64 // destination overhead last window (-1: none)
	dir     int     // +1 raise the knob, -1 lower it
	knob    int     // knobNParcels or knobInterval
	moves   int     // moves on the current knob since rotation
	holds   int     // consecutive within-noise windows
	lastHot int64   // window sequence when last above threshold
	coldFor int     // consecutive windows below threshold
}

// MultiTuner generalizes OverheadTuner to a per-destination, multi-knob
// controller. It partitions the Eq. 4 overhead signal by destination
// (weighting the window's overhead by each destination's share of sent
// parcels), runs an independent bounded hill-climb per hot destination —
// coordinate descent alternating between NParcels and Interval — and
// leaves cold destinations on the action's global policy. Tracked
// destinations are capped; the least-recently-hot is evicted (its
// override cleared) when the cap is exceeded or after IdleWindows quiet
// windows.
type MultiTuner struct {
	tuner
	cfg MultiTunerConfig

	// mu guards tracked and the climbs, the action-wide one included.
	mu      sync.Mutex
	tracked map[int]*destClimb
}

// NewMultiTuner creates (but does not start) a per-destination tuner for
// one coalesced action. Coalescing must already be enabled for the
// action.
func NewMultiTuner(rt *runtime.Runtime, action string, cfg MultiTunerConfig) *MultiTuner {
	cfg = cfg.withDefaults()
	t := &MultiTuner{
		tuner:   newTuner(rt, action, cfg.MaxDecisions),
		cfg:     cfg,
		tracked: make(map[int]*destClimb),
	}
	t.loop = t.run
	return t
}

// TrackedDests returns the destinations currently under independent
// control, sorted ascending.
func (t *MultiTuner) TrackedDests() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.tracked))
	for d := range t.tracked {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// destParcels aggregates cumulative sent-parcel counts per destination
// across every coalescer (requests and responses on every locality)
// attached to the action.
func (t *MultiTuner) destParcels() map[int]int64 {
	out := make(map[int]int64)
	for _, c := range t.rt.Coalescers(t.action) {
		for d, s := range c.AllDestStats() {
			out[d] += s.Parcels
		}
	}
	return out
}

func (t *MultiTuner) run() {
	last := metrics.Snapshot(t.rt)
	prevParcels := t.destParcels()
	var seq int64
	ticker := time.NewTicker(t.cfg.SampleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		seq++
		window := t.window(&last)

		curParcels := t.destParcels()
		deltas := make(map[int]int64, len(curParcels))
		var total int64
		for d, n := range curParcels {
			delta := n - prevParcels[d]
			if delta > 0 {
				deltas[d] = delta
				total += delta
			}
		}
		prevParcels = curParcels

		if window.Tasks < t.cfg.MinWindowTasks || total == 0 {
			// Quiet window: no information; reset baselines so a new
			// phase is judged fresh.
			t.mu.Lock()
			for _, cl := range t.tracked {
				cl.prevOH = -1
			}
			t.global.reset()
			t.mu.Unlock()
			continue
		}
		overhead := window.NetworkOverhead()
		global, err := t.rt.CoalescingParams(t.action)
		if err != nil {
			t.fail(GlobalDest, overhead, coalescing.Params{}, err)
			return
		}

		hot, stop := t.tickDests(seq, overhead, total, deltas, global)
		if stop {
			return
		}
		if hot == 0 {
			if stop := t.tickGlobal(overhead, global); stop {
				return
			}
		} else {
			t.mu.Lock()
			t.global.reset()
			t.mu.Unlock()
		}
	}
}

// tickDests runs one window of per-destination coordinate descent. It
// returns the number of hot destinations this window and whether the
// loop must terminate (a runtime call failed).
func (t *MultiTuner) tickDests(seq int64, overhead float64, total int64, deltas map[int]int64, global coalescing.Params) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()

	// A destination is hot when it clears both the absolute share floor
	// and a multiple of the fair share among this window's active
	// destinations — under uniform traffic nothing qualifies and the
	// global fallback climb runs instead.
	hotBar := t.cfg.HotShare
	if fair := t.cfg.SkewFactor / float64(len(deltas)); fair > hotBar {
		hotBar = fair
	}
	if hotBar > 0.9 {
		// With few active destinations the fair-share multiple can exceed
		// 1; cap it so a single dominant destination still qualifies.
		hotBar = 0.9
	}
	hot := 0
	for d, delta := range deltas {
		share := float64(delta) / float64(total)
		cl, ok := t.tracked[d]
		if share < hotBar || delta < t.cfg.MinDestParcels {
			continue
		}
		hot++
		if !ok {
			ivCap := global.Interval
			if ivCap < t.cfg.MinInterval {
				ivCap = t.cfg.MinInterval
			}
			if ivCap > t.cfg.MaxInterval {
				ivCap = t.cfg.MaxInterval
			}
			cl = &destClimb{params: global, ivCap: ivCap, prevOH: -1, dir: +1, knob: knobNParcels}
			t.tracked[d] = cl
		}
		cl.lastHot = seq
		cl.coldFor = 0

		destOH := overhead * share
		next, reason, moved := cl.step(destOH, t.cfg)
		if !moved {
			continue
		}
		if err := t.rt.SetCoalescingParamsDest(t.action, d, next); err != nil {
			t.fail(d, destOH, cl.params, err)
			return hot, true
		}
		t.log.add(Decision{
			When:     time.Now(),
			Dest:     d,
			Overhead: destOH,
			From:     cl.params,
			To:       next,
			Reason:   reason,
		})
		cl.params = next
	}

	// Age destinations that were not hot this window (whether below the
	// bar or silent entirely) and evict the ones cold too long or beyond
	// the tracking cap.
	for d, cl := range t.tracked {
		if cl.lastHot != seq {
			cl.prevOH = -1 // signal composition changed; judge fresh
			cl.coldFor++
			if cl.coldFor >= t.cfg.IdleWindows {
				t.evict(d, "cold")
			}
		}
	}
	for len(t.tracked) > t.cfg.MaxTrackedDests {
		lru, lruSeq := -1, int64(1<<62)
		for d, cl := range t.tracked {
			if cl.lastHot < lruSeq {
				lru, lruSeq = d, cl.lastHot
			}
		}
		t.evict(lru, "lru")
	}
	return hot, false
}

// evict clears a destination's override and drops its climb state; the
// caller holds t.mu.
func (t *MultiTuner) evict(d int, why string) {
	cl := t.tracked[d]
	delete(t.tracked, d)
	_ = t.rt.ClearCoalescingParamsDest(t.action, d)
	global, err := t.rt.CoalescingParams(t.action)
	if err != nil {
		global = coalescing.Params{}
	}
	t.log.add(Decision{
		When:     time.Now(),
		Dest:     d,
		Overhead: cl.prevOH,
		From:     cl.params,
		To:       global,
		Reason:   "evicted: " + why,
	})
}

// step advances one destination's coordinate descent and returns the
// next parameters, a reason string, and whether a move was made. The
// climb itself is climb.step on whichever knob the descent is on; what a
// destination adds is the rotation between knobs.
func (cl *destClimb) step(destOH float64, cfg MultiTunerConfig) (coalescing.Params, string, bool) {
	cur, lo, hi := int64(cl.params.NParcels), int64(cfg.MinNParcels), int64(cfg.MaxNParcels)
	if cl.knob == knobInterval {
		cur, lo, hi = int64(cl.params.Interval), int64(cfg.MinInterval), int64(cl.ivCap)
	}
	judged := cl.prevOH >= 0
	c := climb{prev: cl.prevOH, dir: cl.dir}
	n, out := c.step(destOH, cfg.Tolerance, cur, lo, hi)
	cl.prevOH, cl.dir = c.prev, c.dir

	if out == held {
		// After two windows within noise rotate to the other knob — this
		// one has plateaued.
		cl.holds++
		if cl.holds >= 2 {
			cl.rotate()
		}
		return coalescing.Params{}, "", false
	}
	if judged {
		cl.holds = 0
	}
	if out == pinned {
		// Pinned at a bound: rotate to the other knob rather than stall.
		cl.rotate()
		return coalescing.Params{}, "", false
	}
	next := cl.params
	if cl.knob == knobInterval {
		next.Interval = time.Duration(n)
	} else {
		next.NParcels = int(n)
	}
	cl.moves++
	if cl.moves >= cfg.KnobPeriod {
		cl.rotate()
	}
	knobName := "n"
	if cl.knob == knobInterval {
		knobName = "interval"
	}
	return next, fmt.Sprintf("d_oh=%.4f knob=%s dir=%+d", destOH, knobName, cl.dir), true
}

// rotate moves the coordinate descent to the next knob. The Interval
// knob starts downward (shorten the timer; its cap forbids going above
// the inherited global value), NParcels upward.
func (cl *destClimb) rotate() {
	cl.knob = (cl.knob + 1) % knobCount
	cl.moves = 0
	cl.holds = 0
	if cl.knob == knobInterval {
		cl.dir = -1
	} else {
		cl.dir = +1
	}
}

// tickGlobal is the uniform-traffic fallback: with no hot destination to
// single out, hill-climb the action-wide NParcels exactly as
// OverheadTuner does. It returns true if the loop must terminate.
func (t *MultiTuner) tickGlobal(overhead float64, global coalescing.Params) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.climbGlobal(overhead, t.cfg.Tolerance, global, t.cfg.MinNParcels, t.cfg.MaxNParcels, " (uniform fallback)")
}
