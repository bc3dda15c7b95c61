package adaptive

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// outcome is what one climb step did with its knob.
type outcome int

const (
	// held: the overhead is within tolerance of the last window's; the
	// baseline is refreshed and the knob stays.
	held outcome = iota
	// pinned: the step moved, but clamping brought it back to where the
	// knob already is.
	pinned
	// moved: the knob has a new value.
	moved
)

// tolerance is the relative overhead change a climb treats as noise.
const tolerance = 0.02

// climb is the hill-climb every overhead-driven controller runs on a
// knob: double it while the Eq. 4 overhead falls, halve it once it rises.
type climb struct {
	// prev is the overhead of the last judged window; negative means
	// there is none, and the next window moves without being compared.
	prev float64
	// dir is +1 to double the knob, -1 to halve it.
	dir int
}

// reset forgets the last overhead, so that a window after a quiet spell
// or a change in what the signal is made of is judged fresh.
func (c *climb) reset() { c.prev = -1 }

// step judges one window and returns the knob's next value. Worse than
// the last window by more than tolerance reverses the direction, better
// by more keeps it, anything between holds. A move past lo or hi is
// clamped and leaves the direction pointing back inward.
func (c *climb) step(overhead float64, cur, lo, hi int64) (int64, outcome) {
	if c.prev >= 0 {
		change := overhead - c.prev
		switch {
		case change > tolerance*c.prev:
			c.dir = -c.dir
		case change < -tolerance*c.prev:
		default:
			c.prev = overhead
			return cur, held
		}
	}
	c.prev = overhead

	next := cur / 2
	if c.dir > 0 {
		next = cur * 2
	}
	if next < lo {
		next = lo
		c.dir = +1
	}
	if next > hi {
		next = hi
		c.dir = -1
	}
	if next == cur {
		return cur, pinned
	}
	return next, moved
}

// tuner is what OverheadTuner and MultiTuner are both made of: the action
// they steer, the sampling loop's lifecycle with its decision ring, and
// the action-wide NParcels climb.
type tuner struct {
	rt     *runtime.Runtime
	action string
	global climb

	// loop is the controller's sampling loop; it returns when stop is
	// closed or after fail.
	loop func()
	log  *decisionLog

	started, stopped sync.Once
	stop, done       chan struct{}

	errMu sync.Mutex
	err   error
}

func newTuner(rt *runtime.Runtime, action string) tuner {
	return tuner{
		rt:     rt,
		action: action,
		global: climb{prev: -1, dir: +1},
		log:    newDecisionLog(DefaultMaxDecisions),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the sampling loop. Only the first call does; a tuner
// that was stopped does not start again.
func (t *tuner) Start() {
	t.started.Do(func() {
		go func() {
			defer close(t.done)
			t.loop()
		}()
	})
}

// Stop terminates the loop and waits for it to exit. Stop is idempotent,
// and on a tuner that was never started it returns at once.
func (t *tuner) Stop() {
	t.started.Do(func() { close(t.done) })
	t.stopped.Do(func() { close(t.stop) })
	<-t.done
}

// Decisions returns the retained decision log (oldest first). When more
// than DefaultMaxDecisions decisions have been made, the oldest are dropped —
// use DecisionCount for the cumulative total.
func (t *tuner) Decisions() []Decision { return t.log.all() }

// DecisionCount returns the total number of decisions ever made,
// including ones the bounded log has since dropped.
func (t *tuner) DecisionCount() int64 { return t.log.count() }

// DroppedDecisions returns how many decisions the bounded log discarded.
func (t *tuner) DroppedDecisions() int64 { return t.log.droppedCount() }

// Err reports the error that terminated the sampling loop, if any. A nil
// result after Stop means the loop exited cleanly.
func (t *tuner) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// fail records a terminal decision carrying the error reason; the caller
// then leaves the loop, and the error is surfaced via Err.
func (t *tuner) fail(dest int, overhead float64, params coalescing.Params, err error) {
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

// window returns the Section III counter deltas since *last and advances
// *last to now.
func (t *tuner) window(last *metrics.Sample) metrics.Phase {
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

// climbGlobal advances the action-wide NParcels climb by one judged
// window and installs the move, if there is one. suffix is appended to
// the decision's reason. It returns true if the loop must terminate.
func (t *tuner) climbGlobal(overhead float64, params coalescing.Params, lo, hi int, suffix string) bool {
	n, out := t.global.step(overhead, int64(params.NParcels), int64(lo), int64(hi))
	if out != moved {
		return false
	}
	next := params
	next.NParcels = int(n)
	if err := t.rt.SetCoalescingParams(t.action, next); err != nil {
		t.fail(GlobalDest, overhead, params, err)
		return true
	}
	t.log.add(Decision{
		When:     time.Now(),
		Dest:     GlobalDest,
		Overhead: overhead,
		From:     params,
		To:       next,
		Reason:   fmt.Sprintf("n_oh=%.4f dir=%+d%s", overhead, t.global.dir, suffix),
	})
	return false
}
