package counters

// MustParse parses s, panicking on error, for paths written as literals
// in tests.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Series extracts one counter's time series from the sampler as
// (seconds since the first sample, value) pairs; missing readings are
// skipped.
func (s *Sampler) Series(path string) (ts []float64, vs []float64) {
	samples := s.Samples()
	if len(samples) == 0 {
		return nil, nil
	}
	t0 := samples[0].At
	for _, smp := range samples {
		if v, ok := smp.Values[path]; ok {
			ts = append(ts, smp.At.Sub(t0).Seconds())
			vs = append(vs, v)
		}
	}
	return ts, vs
}
