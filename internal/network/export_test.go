package network

// Crashed reports whether the locality has crash-stopped.
func (p *FaultPlan) Crashed(locality int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed[locality]
}

// BadHandshakes returns how many inbound connections were dropped for an
// invalid or mismatched hello, a frame claiming another source than the
// hello's, or a frame longer than maxPeerFrame.
func (f *TCPFabric) BadHandshakes() uint64 { return f.badHs.Load() }
