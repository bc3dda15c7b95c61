package baselines

// QueuedParcels returns the number of buffered parcels (for tests).
func (h *BufferSize) QueuedParcels() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, q := range h.queues {
		n += len(q.parcels)
	}
	return n
}

// QueuedParcels returns the number of buffered parcels (for tests).
func (h *PeriodicCheck) QueuedParcels() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, q := range h.queues {
		n += len(q.parcels)
	}
	return n
}
