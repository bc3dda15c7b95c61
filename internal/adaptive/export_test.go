package adaptive

import "repro/internal/coalescing"

// DestParcels and TickWindow open the tuner's per-window method to the
// external tests, which import packages that import this one.
func (t *MultiTuner) DestParcels() map[int]int64 { return t.destParcels() }

func (t *MultiTuner) TickWindow(seq int64, overhead float64, deltas map[int]int64, global coalescing.Params) (int, bool) {
	return t.tick(seq, overhead, deltas, global)
}

// DecisionLog returns the retained decision history (oldest first).
func (t *PICSTuner) DecisionLog() []Decision {
	return t.log.all()
}
