package reliable

// PeerDown reports whether FailPeer has been called for the locality.
func (f *Fabric) PeerDown(peer int) bool {
	return peer >= 0 && peer < len(f.downPeers) && f.downPeers[peer].Load()
}
