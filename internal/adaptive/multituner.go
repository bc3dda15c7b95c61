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
	// MaxNParcels bounds the NParcels search (default 1024).
	MaxNParcels int
	// MinWindowTasks skips windows with fewer executed tasks, when the
	// application is between communication phases (default 50).
	MinWindowTasks int64
}

func (c MultiTunerConfig) withDefaults() MultiTunerConfig {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 50 * time.Millisecond
	}
	if c.MaxNParcels <= 0 {
		c.MaxNParcels = 1024
	}
	if c.MinWindowTasks <= 0 {
		c.MinWindowTasks = 50
	}
	return c
}

// The tuner's policy beyond MultiTunerConfig.
const (
	// minNParcels is the floor of every NParcels climb.
	minNParcels = 1
	// maxTrackedDests caps how many destinations get their own climb;
	// beyond the cap the least-recently-hot destination is evicted back
	// to the global policy.
	maxTrackedDests = 8
	// hotShare is the minimum fraction of the window's parcels a
	// destination must receive to be tuned independently.
	hotShare = 0.10
	// skewFactor is how many multiples of the fair share (1/active
	// destinations) a destination must carry to count as hot — under
	// uniform traffic no destination qualifies and all of it is the rest.
	skewFactor = 2
	// minDestParcels is the minimum absolute parcels per window for a
	// destination, or the rest, to be judged — guards the share test in
	// quiet windows.
	minDestParcels = 16
	// idleWindows evicts a tracked destination after this many
	// consecutive windows below the hot threshold.
	idleWindows = 10
)

// Knob indices for the coordinate descent.
const (
	knobNParcels = iota
	knobInterval
	knobCount
)

const (
	// minInterval and maxInterval bound the Interval knob.
	minInterval = time.Microsecond
	maxInterval = 5 * time.Millisecond
	// knobPeriod is how many moves a destination makes on one knob before
	// coordinate descent rotates to the other.
	knobPeriod = 3
)

// destClimb is the per-destination hill-climb state: one climb, whose
// knob rotates between NParcels and Interval.
type destClimb struct {
	params coalescing.Params // override currently installed
	c      climb
	// ivCap bounds the Interval knob at the global Interval the climb
	// started from: a hot destination's flushes should be full-driven,
	// and the Eq. 4 signal cannot see the latency cost of a longer
	// timer, so the climb only ever shortens it. maxN bounds NParcels.
	ivCap   time.Duration
	maxN    int64
	moves   int   // moves on the current knob since rotation
	holds   int   // consecutive within-noise windows
	lastHot int64 // window sequence when last above threshold
	coldFor int   // consecutive windows below threshold
}

// newDestClimb starts a destination's climb from params on knob, in
// direction dir, judging its first window fresh.
func newDestClimb(params coalescing.Params, ivCap time.Duration, maxN, knob, dir int) *destClimb {
	cl := &destClimb{params: params, ivCap: ivCap, maxN: int64(maxN)}
	cl.c.prev = -1
	cl.setKnob(knob, dir)
	return cl
}

// MultiTuner hill-climbs the coalescing parameters of one action against
// the instantaneous Eq. 4 network overhead, on its own goroutine. It
// partitions the signal by destination (weighting the window's overhead
// by each destination's share of sent parcels) and runs an independent
// bounded hill-climb per hot destination — coordinate descent
// alternating between NParcels and Interval. The rest, every destination
// without a climb of its own, is one more climb on the same signal: its
// share of the overhead moves the action-wide NParcels. Tracked
// destinations are capped; the least-recently-hot is evicted (its
// override cleared) when the cap is exceeded or after idleWindows quiet
// windows.
type MultiTuner struct {
	rt     *runtime.Runtime
	action string
	cfg    MultiTunerConfig
	log    *decisionLog

	// mu guards tracked and the climbs, the rest's included.
	mu      sync.Mutex
	rest    climb
	tracked map[int]*destClimb

	started, stopped sync.Once
	stop, done       chan struct{}

	errMu sync.Mutex
	err   error
}

// NewMultiTuner creates (but does not start) a tuner for one coalesced
// action. Coalescing must already be enabled for the action.
func NewMultiTuner(rt *runtime.Runtime, action string, cfg MultiTunerConfig) *MultiTuner {
	cfg = cfg.withDefaults()
	return &MultiTuner{
		rt:      rt,
		action:  action,
		cfg:     cfg,
		log:     newDecisionLog(DefaultMaxDecisions),
		rest:    climb{prev: -1, dir: +1, knob: knobNParcels, lo: minNParcels, hi: int64(cfg.MaxNParcels)},
		tracked: make(map[int]*destClimb),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the sampling loop. Only the first call does; a tuner
// that was stopped does not start again.
func (t *MultiTuner) Start() {
	t.started.Do(func() {
		go func() {
			defer close(t.done)
			t.run()
		}()
	})
}

// Stop terminates the loop and waits for it to exit. Stop is idempotent,
// and on a tuner that was never started it returns at once.
func (t *MultiTuner) Stop() {
	t.started.Do(func() { close(t.done) })
	t.stopped.Do(func() { close(t.stop) })
	<-t.done
}

// Decisions returns the retained decision log (oldest first). When more
// than DefaultMaxDecisions decisions have been made, the oldest are dropped —
// use DecisionCount for the cumulative total.
func (t *MultiTuner) Decisions() []Decision { return t.log.all() }

// DecisionCount returns the total number of decisions ever made,
// including ones the bounded log has since dropped.
func (t *MultiTuner) DecisionCount() int64 { return t.log.count() }

// DroppedDecisions returns how many decisions the bounded log discarded.
func (t *MultiTuner) DroppedDecisions() int64 { return t.log.droppedCount() }

// Err reports the error that terminated the sampling loop, if any. A nil
// result after Stop means the loop exited cleanly.
func (t *MultiTuner) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// fail records a terminal decision carrying the error reason; the caller
// then leaves the loop, and the error is surfaced via Err.
func (t *MultiTuner) fail(dest int, overhead float64, params coalescing.Params, err error) {
	t.errMu.Lock()
	t.err = err
	t.errMu.Unlock()
	t.log.add(Decision{
		When:     time.Now(),
		Dest:     dest,
		Overhead: overhead,
		From:     params,
		To:       params,
		Reason:   "terminated: " + err.Error(),
	})
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

// Settled returns where the climbs stand: the action-wide parameters and
// the override each tracked destination has installed.
func (t *MultiTuner) Settled() (coalescing.Params, map[int]coalescing.Params, error) {
	global, err := t.rt.CoalescingParams(t.action)
	if err != nil {
		return global, nil, err
	}
	dests := make(map[int]coalescing.Params)
	for _, d := range t.TrackedDests() {
		if p, overridden, err := t.rt.CoalescingParamsDest(t.action, d); err == nil && overridden {
			dests[d] = p
		}
	}
	return global, dests, nil
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

// window returns the Section III counter deltas since *last and advances
// *last to now.
func (t *MultiTuner) window(last *metrics.Sample) metrics.Phase {
	now := metrics.Snapshot(t.rt)
	w := metrics.Phase{
		Tasks:          now.Tasks - last.Tasks,
		TaskDuration:   now.TaskDuration - last.TaskDuration,
		ExecDuration:   now.ExecDuration - last.ExecDuration,
		BackgroundWork: now.BackgroundWork - last.BackgroundWork,
	}
	*last = now
	return w
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
		for d, n := range curParcels {
			if delta := n - prevParcels[d]; delta > 0 {
				deltas[d] = delta
			}
		}
		prevParcels = curParcels

		if window.Tasks < t.cfg.MinWindowTasks {
			t.quiet()
			continue
		}
		overhead := window.NetworkOverhead()
		global, err := t.rt.CoalescingParams(t.action)
		if err != nil {
			t.fail(GlobalDest, overhead, coalescing.Params{}, err)
			return
		}
		if _, stop := t.tick(seq, overhead, deltas, global); stop {
			return
		}
	}
}

// quiet judges a window that carries no information: it resets the
// baselines so a new phase is judged fresh.
func (t *MultiTuner) quiet() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cl := range t.tracked {
		cl.c.reset()
	}
	t.rest.reset()
}

// tick judges one window of parcels sent per destination (deltas) under
// the window's Eq. 4 overhead and the action-wide parameters global:
// every hot destination's climb, then the rest's, then the ageing of the
// destinations that were not hot. A window that sent nothing is quiet.
// It returns the number of hot destinations and whether the loop must
// terminate (a runtime call failed).
func (t *MultiTuner) tick(seq int64, overhead float64, deltas map[int]int64, global coalescing.Params) (int, bool) {
	var total int64
	for _, n := range deltas {
		total += n
	}
	if total == 0 {
		t.quiet()
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// A destination is hot when it clears both the absolute share floor
	// and a multiple of the fair share among this window's active
	// destinations — under uniform traffic nothing qualifies.
	hotBar := hotShare
	if fair := skewFactor / float64(len(deltas)); fair > hotBar {
		hotBar = fair
	}
	if hotBar > 0.9 {
		// With few active destinations the fair-share multiple can exceed
		// 1; cap it so a single dominant destination still qualifies.
		hotBar = 0.9
	}
	// The rest is every destination without a climb of its own: the
	// traffic the action-wide parameters govern.
	hot, rest, joined := 0, int64(0), false
	for d, delta := range deltas {
		share := float64(delta) / float64(total)
		cl, ok := t.tracked[d]
		if share < hotBar || delta < minDestParcels {
			if !ok {
				rest += delta
			}
			continue
		}
		hot++
		if !ok {
			joined = true
			ivCap := min(max(global.Interval, minInterval), maxInterval)
			cl = newDestClimb(global, ivCap, t.cfg.MaxNParcels, knobNParcels, +1)
			t.tracked[d] = cl
		}
		cl.lastHot = seq
		cl.coldFor = 0

		destOH := overhead * share
		next, reason, decided := cl.step(destOH)
		if !decided {
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

	// The rest climbs NParcels on its share of the overhead, and keeps
	// its baseline through a window that sends it too little to judge.
	// A window in which a destination left the rest, here, or rejoined
	// it, in evict, is no baseline for the next: the share measured
	// different traffic.
	if rest >= minDestParcels {
		restOH := overhead * (float64(rest) / float64(total))
		if stepped, out := t.rest.step(restOH, global); out >= moved {
			// The rest owns the action-wide NParcels and nothing else: a
			// settle on parameters seen before a caller changed the
			// Interval installs their NParcels only.
			next := global
			next.NParcels = stepped.NParcels
			if next != global {
				if err := t.rt.SetCoalescingParams(t.action, next); err != nil {
					t.fail(GlobalDest, restOH, global, err)
					return hot, true
				}
			}
			reason := fmt.Sprintf("n_oh=%.4f dir=%+d", restOH, t.rest.dir)
			if out != moved {
				reason = t.rest.why(out, restOH)
			}
			t.log.add(Decision{
				When:     time.Now(),
				Dest:     GlobalDest,
				Overhead: restOH,
				From:     global,
				To:       next,
				Reason:   reason,
			})
		}
	}
	if joined {
		t.rest.reset()
	}

	// Age destinations that were not hot this window (whether below the
	// bar or silent entirely) and evict the ones cold too long or beyond
	// the tracking cap. An eviction records the destination's share of
	// this window's overhead.
	shareOH := func(d int) float64 { return overhead * float64(deltas[d]) / float64(total) }
	for d, cl := range t.tracked {
		if cl.lastHot != seq {
			cl.c.reset() // signal composition changed; judge fresh
			cl.coldFor++
			if cl.coldFor >= idleWindows {
				t.evict(d, shareOH(d), "cold")
			}
		}
	}
	for len(t.tracked) > maxTrackedDests {
		lru, lruSeq := -1, int64(1<<62)
		for d, cl := range t.tracked {
			if cl.lastHot < lruSeq {
				lru, lruSeq = d, cl.lastHot
			}
		}
		t.evict(lru, shareOH(lru), "lru")
	}
	return hot, false
}

// evict clears a destination's override and drops its climb state, and
// the destination rejoins the rest; the caller holds t.mu.
func (t *MultiTuner) evict(d int, overhead float64, why string) {
	cl := t.tracked[d]
	delete(t.tracked, d)
	t.rest.reset()
	_ = t.rt.ClearCoalescingParamsDest(t.action, d)
	global, err := t.rt.CoalescingParams(t.action)
	if err != nil {
		global = coalescing.Params{}
	}
	t.log.add(Decision{
		When:     time.Now(),
		Dest:     d,
		Overhead: overhead,
		From:     cl.params,
		To:       global,
		Reason:   "evicted: " + why,
	})
}

// step advances one destination's coordinate descent and returns the
// next parameters, a reason string, and whether a decision was made. The
// climb itself, settle included, is climb.step on whichever knob the
// descent is on; what a destination adds is the rotation between knobs,
// which a settled climb does not make.
func (cl *destClimb) step(destOH float64) (coalescing.Params, string, bool) {
	judged := cl.c.prev >= 0
	next, out := cl.c.step(destOH, cl.params)
	switch {
	case out == settled || out == unsettled:
		return next, cl.c.why(out, destOH), true
	case cl.c.isSettled:
		return coalescing.Params{}, "", false
	case out == held:
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
	cl.moves++
	if cl.moves >= knobPeriod {
		cl.rotate()
	}
	knobName := "n"
	if cl.c.knob == knobInterval {
		knobName = "interval"
	}
	return next, fmt.Sprintf("d_oh=%.4f knob=%s dir=%+d", destOH, knobName, cl.c.dir), true
}

// rotate moves the coordinate descent to the next knob. The Interval
// knob starts downward (shorten the timer; its cap forbids going above
// the inherited global value), NParcels upward.
func (cl *destClimb) rotate() {
	knob, dir := (cl.c.knob+1)%knobCount, +1
	if knob == knobInterval {
		dir = -1
	}
	cl.setKnob(knob, dir)
}

// setKnob points the climb at knob, in direction dir, within the knob's
// bounds.
func (cl *destClimb) setKnob(knob, dir int) {
	cl.c.knob, cl.c.dir = knob, dir
	cl.moves, cl.holds = 0, 0
	if knob == knobInterval {
		cl.c.lo, cl.c.hi = int64(minInterval), int64(cl.ivCap)
	} else {
		cl.c.lo, cl.c.hi = minNParcels, cl.maxN
	}
}
