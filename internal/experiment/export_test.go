package experiment

// SettledNParcels is the largest NParcels the overhead tuner left
// installed, action-wide or on a destination's override.
func (r AdaptiveResult) SettledNParcels() int {
	n := r.FinalNParcels
	for _, dn := range r.FinalDestNParcels {
		n = max(n, dn)
	}
	return n
}
