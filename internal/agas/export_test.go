package agas

// HitsMisses returns the cache's cumulative hit and miss counts.
func (c *Cache) HitsMisses() (hits, misses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}
