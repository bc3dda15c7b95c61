// Package adaptive implements the goal the paper's methodology builds
// toward: runtime tuning of parcel-coalescing parameters from
// introspective performance counters.
//
// Three controllers are provided:
//
//   - OverheadTuner monitors the network-overhead metric (Eq. 4, the
//     /threads/background-overhead counter) in sliding windows while the
//     application runs and hill-climbs the number of parcels to coalesce
//     per message. Because it reads instantaneous state rather than
//     iteration boundaries, it works for applications "that do not have a
//     well defined iterative step or a predictable pattern of
//     communication" — the capability the paper argues its metrics
//     enable.
//
//   - MultiTuner generalizes the same signal per destination: it weights
//     each window's overhead by a destination's share of sent parcels,
//     hill-climbs NParcels and Interval via coordinate descent
//     independently for each hot destination (installed as per-dest
//     Params overrides), and leaves cold destinations on the global
//     policy. See multituner.go.
//
//     The two share one hill-climb step, one action-wide climb and one
//     Start/Stop lifecycle (climb.go): under uniform traffic MultiTuner
//     runs OverheadTuner's code, not a copy of it.
//
//   - PICSTuner reproduces the prior state of the art the paper compares
//     against (Charm++'s PICS, which "converged to a decision on
//     coalescing buffer size in 5 decisions"): it requires an iterative
//     application, measures each iteration's elapsed time under a
//     candidate parameter set, and hill-climbs a candidate ladder until
//     the neighbors of the current choice are no better.
package adaptive

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// GlobalDest marks a Decision that changed the action-wide parameters
// rather than a single destination's override.
const GlobalDest = -1

// Decision records one tuning step of any controller.
type Decision struct {
	// When is the decision time.
	When time.Time
	// Dest is the destination locality the decision applies to, or
	// GlobalDest for an action-wide change.
	Dest int
	// Overhead is the observed metric that triggered the decision (Eq. 4
	// ratio for OverheadTuner/MultiTuner, iteration seconds for
	// PICSTuner).
	Overhead float64
	// From and To are the parameter values before and after.
	From, To coalescing.Params
	// Reason is a short human-readable explanation.
	Reason string
}

// String renders the decision for logs and the adaptive experiment table.
func (d Decision) String() string {
	if d.Dest == GlobalDest {
		return fmt.Sprintf("%.4f: %s -> %s (%s)", d.Overhead, d.From, d.To, d.Reason)
	}
	return fmt.Sprintf("%.4f: dest %d %s -> %s (%s)", d.Overhead, d.Dest, d.From, d.To, d.Reason)
}

// TunerConfig configures an OverheadTuner.
type TunerConfig struct {
	// SampleInterval is the window length between decisions
	// (default 50ms).
	SampleInterval time.Duration
	// MinNParcels and MaxNParcels bound the search (defaults 1 and 1024).
	MinNParcels, MaxNParcels int
	// Tolerance is the relative overhead change treated as noise
	// (default 0.02 = 2%).
	Tolerance float64
	// MinWindowTasks skips windows with fewer executed tasks, when the
	// application is between communication phases (default 50).
	MinWindowTasks int64
	// MaxDecisions caps the retained decision log; older entries are
	// overwritten and counted as dropped (default DefaultMaxDecisions).
	MaxDecisions int
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 50 * time.Millisecond
	}
	if c.MinNParcels <= 0 {
		c.MinNParcels = 1
	}
	if c.MaxNParcels <= 0 {
		c.MaxNParcels = 1024
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.MinWindowTasks <= 0 {
		c.MinWindowTasks = 50
	}
	return c
}

// OverheadTuner hill-climbs NParcels against the instantaneous network
// overhead metric on its own goroutine. It is the climb MultiTuner runs
// under uniform traffic (tuner.climbGlobal), and nothing else.
type OverheadTuner struct {
	tuner
	cfg TunerConfig
}

// NewOverheadTuner creates (but does not start) a tuner for one coalesced
// action. Coalescing must already be enabled for the action.
func NewOverheadTuner(rt *runtime.Runtime, action string, cfg TunerConfig) *OverheadTuner {
	cfg = cfg.withDefaults()
	t := &OverheadTuner{tuner: newTuner(rt, action, cfg.MaxDecisions), cfg: cfg}
	t.loop = t.run
	return t
}

func (t *OverheadTuner) run() {
	last := metrics.Snapshot(t.rt)
	ticker := time.NewTicker(t.cfg.SampleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		window := t.window(&last)
		if window.Tasks < t.cfg.MinWindowTasks {
			// Quiet window: no information; also reset the baseline so a
			// new phase is judged fresh.
			t.global.reset()
			continue
		}
		overhead := window.NetworkOverhead()
		params, err := t.rt.CoalescingParams(t.action)
		if err != nil {
			t.fail(GlobalDest, overhead, coalescing.Params{}, err)
			return
		}
		if t.tick(overhead, params) {
			return
		}
	}
}

// tick judges one busy window. It returns true if the loop must
// terminate.
func (t *OverheadTuner) tick(overhead float64, params coalescing.Params) bool {
	return t.climbGlobal(overhead, t.cfg.Tolerance, params, t.cfg.MinNParcels, t.cfg.MaxNParcels, "")
}

// PICSTuner is the iteration-driven baseline: the application calls
// OnIteration with each iteration's elapsed time; the tuner walks a
// candidate ladder and converges when neither neighbor improves.
type PICSTuner struct {
	rt         *runtime.Runtime
	action     string
	candidates []coalescing.Params

	mu        sync.Mutex
	idx       int
	bestIdx   int
	bestTime  time.Duration
	times     map[int]time.Duration
	converged bool
	log       *decisionLog
	pendingUp bool
}

// NewPICSTuner creates a tuner over the given candidate ladder (ordered
// by increasing aggressiveness) and installs the first candidate.
// Coalescing must already be enabled for the action.
func NewPICSTuner(rt *runtime.Runtime, action string, candidates []coalescing.Params) (*PICSTuner, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("adaptive: empty candidate ladder")
	}
	t := &PICSTuner{
		rt:         rt,
		action:     action,
		candidates: candidates,
		bestIdx:    -1,
		times:      make(map[int]time.Duration),
		log:        newDecisionLog(0),
		pendingUp:  true,
	}
	if err := rt.SetCoalescingParams(action, candidates[0]); err != nil {
		return nil, err
	}
	return t, nil
}

// Converged reports whether the search has settled.
func (t *PICSTuner) Converged() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.converged
}

// Best returns the best parameters found so far.
func (t *PICSTuner) Best() coalescing.Params {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bestIdx < 0 {
		return t.candidates[t.idx]
	}
	return t.candidates[t.bestIdx]
}

// Decisions returns the number of parameter changes made, the metric the
// paper quotes for PICS ("converged to a decision ... in 5 decisions").
// The count is cumulative and unaffected by the bounded log dropping old
// entries.
func (t *PICSTuner) Decisions() int {
	return int(t.log.count())
}

// DecisionLog returns the retained decision history (oldest first).
func (t *PICSTuner) DecisionLog() []Decision {
	return t.log.all()
}

// OnIteration records the elapsed time of the iteration that ran under
// the current candidate and, if the search has not converged, moves to
// the next candidate. It returns the parameters for the next iteration.
func (t *PICSTuner) OnIteration(elapsed time.Duration) coalescing.Params {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.converged {
		return t.candidates[t.bestIdx]
	}
	t.times[t.idx] = elapsed
	if t.bestIdx < 0 || elapsed < t.bestTime {
		t.bestIdx = t.idx
		t.bestTime = elapsed
	}

	next := t.idx
	switch {
	case t.pendingUp && t.idx == t.bestIdx && t.idx+1 < len(t.candidates):
		// Current candidate is the best so far: probe upward.
		next = t.idx + 1
	case t.pendingUp:
		// Last upward probe was worse (or ladder exhausted): the best
		// index is settled unless its lower neighbor is unmeasured.
		if _, ok := t.times[t.bestIdx-1]; t.bestIdx > 0 && !ok {
			t.pendingUp = false
			next = t.bestIdx - 1
		} else {
			t.settle()
			return t.candidates[t.bestIdx]
		}
	default:
		// Downward probe measured: settle on the winner.
		t.settle()
		return t.candidates[t.bestIdx]
	}

	from := t.candidates[t.idx]
	t.idx = next
	to := t.candidates[t.idx]
	t.log.add(Decision{
		When:     time.Now(),
		Dest:     GlobalDest,
		Overhead: elapsed.Seconds(),
		From:     from,
		To:       to,
		Reason:   fmt.Sprintf("iteration took %v", elapsed.Round(time.Microsecond)),
	})
	_ = t.rt.SetCoalescingParams(t.action, to)
	return to
}

// settle locks in the best candidate; the caller holds t.mu.
func (t *PICSTuner) settle() {
	t.converged = true
	if t.idx != t.bestIdx {
		from := t.candidates[t.idx]
		to := t.candidates[t.bestIdx]
		t.idx = t.bestIdx
		t.log.add(Decision{
			When:     time.Now(),
			Dest:     GlobalDest,
			Overhead: t.bestTime.Seconds(),
			From:     from,
			To:       to,
			Reason:   "converged",
		})
		_ = t.rt.SetCoalescingParams(t.action, to)
	}
}

// DefaultLadder returns the candidate ladder used by the experiments:
// powers of two from 1 to max with the given wait time.
func DefaultLadder(max int, wait time.Duration) []coalescing.Params {
	var out []coalescing.Params
	for k := 1; k <= max; k *= 2 {
		out = append(out, coalescing.Params{NParcels: k, Interval: wait})
	}
	return out
}
