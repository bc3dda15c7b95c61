package counters

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample is one timed reading of a set of counters.
type Sample struct {
	// At is the sampling time.
	At time.Time
	// Values maps counter path to scalar reading.
	Values map[string]float64
}

// Sampler periodically reads a set of counter queries from a registry,
// building the time series behind HPX's --hpx:print-counter-interval
// facility. The paper's envisioned adaptive tuning consumes exactly this
// kind of stream ("such information can then be fed into policies for the
// purpose of runtime adaptivity or can be used for postmortem analysis").
//
// Queries may use wildcards; the matched counter set is re-evaluated at
// every tick so counters registered after Start are picked up.
type Sampler struct {
	reg      *Registry
	queries  []string
	interval time.Duration

	mu      sync.Mutex
	samples []Sample

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSampler creates a sampler reading the given queries every interval
// (minimum 1 ms).
func NewSampler(reg *Registry, queries []string, interval time.Duration) *Sampler {
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Sampler{
		reg:      reg,
		queries:  append([]string{}, queries...),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine; an immediate first sample is
// taken.
func (s *Sampler) Start() {
	go s.run()
}

func (s *Sampler) run() {
	defer close(s.done)
	s.takeSample()
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.takeSample()
		}
	}
}

func (s *Sampler) takeSample() {
	values := make(map[string]float64)
	for _, q := range s.queries {
		cs, err := s.reg.Query(q)
		if err != nil {
			// Exact path without wildcards: fall back to Get.
			if c, ok := s.reg.Get(q); ok {
				values[c.Path().String()] = c.Value()
			}
			continue
		}
		for _, c := range cs {
			values[c.Path().String()] = c.Value()
		}
	}
	sample := Sample{At: time.Now(), Values: values}
	s.mu.Lock()
	s.samples = append(s.samples, sample)
	s.mu.Unlock()
}

// Stop terminates sampling (idempotent) and waits for the goroutine.
func (s *Sampler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// Samples returns the collected series.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// WriteCSV renders the series as CSV: a time column followed by one
// column per counter path (union over all samples, sorted).
func (s *Sampler) WriteCSV(w io.Writer) error {
	samples := s.Samples()
	cols := map[string]bool{}
	for _, smp := range samples {
		for k := range smp.Values {
			cols[k] = true
		}
	}
	paths := make([]string, 0, len(cols))
	for k := range cols {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", strings.Join(paths, ",")); err != nil {
		return err
	}
	if len(samples) == 0 {
		return nil
	}
	t0 := samples[0].At
	for _, smp := range samples {
		row := make([]string, 0, len(paths)+1)
		row = append(row, fmt.Sprintf("%.6f", smp.At.Sub(t0).Seconds()))
		for _, p := range paths {
			if v, ok := smp.Values[p]; ok {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
