package health

import "time"

// Samples returns the number of inter-arrival samples held for peer.
func (d *Detector) Samples(peer int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.peers[peer]; h != nil {
		return len(h.intervals)
	}
	return 0
}

// Suspect reports whether peer's suspicion level has crossed the
// configured threshold.
func (d *Detector) Suspect(peer int, now time.Time) bool {
	return d.Phi(peer, now) >= d.cfg.PhiThreshold
}

// LocalHealth returns the current Lifeguard score S; effective
// suspicion thresholds are the configured ones times (1 + S).
func (m *Monitor) LocalHealth() int64 { return m.localHealth.Load() }

// Silenced reports whether the sweep is currently paused.
func (m *Monitor) Silenced() bool { return m.silenced.Load() }
