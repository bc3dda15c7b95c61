package adaptive

import "sync"

// DefaultMaxDecisions bounds a controller's decision log: long-running
// soaks make decisions indefinitely, so the log is a ring — old entries
// are overwritten and counted as dropped rather than growing without
// limit.
const DefaultMaxDecisions = 1024

// decisionLog is a bounded ring of Decisions shared by the controllers.
// Appends past the cap overwrite the oldest entry and increment the
// dropped count; total counts every append ever made, so callers that
// diff decision counts across phases stay exact even after the ring
// wraps.
type decisionLog struct {
	mu      sync.Mutex
	buf     []Decision
	capN    int
	head    int // index of the oldest entry once the ring is full
	total   int64
	dropped int64
}

func newDecisionLog(capN int) *decisionLog {
	if capN <= 0 {
		capN = DefaultMaxDecisions
	}
	return &decisionLog{buf: make([]Decision, 0, capN), capN: capN}
}

// add appends one decision, overwriting the oldest when full.
func (l *decisionLog) add(d Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < l.capN {
		l.buf = append(l.buf, d)
		return
	}
	l.buf[l.head] = d
	l.head = (l.head + 1) % l.capN
	l.dropped++
}

// all returns the retained decisions, oldest first.
func (l *decisionLog) all() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.buf))
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	return out
}

// count returns the total number of decisions ever appended.
func (l *decisionLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// droppedCount returns how many decisions the ring has overwritten.
func (l *decisionLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
