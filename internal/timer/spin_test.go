package timer

import (
	"sort"
	"testing"
	"time"
)

// TestSpinFromRunsToItsDeadline: a spin never ends before start+d, the
// reading it returns is one the clock really gave (nothing later reads
// earlier), and half of all spins overshoot by less than 100 ns — the
// poll step is one monotonic read plus the filler loop, so the modelled
// cost is the configured one and not the clock's.
func TestSpinFromRunsToItsDeadline(t *testing.T) {
	const spins = 10000
	const d = time.Microsecond
	over := make([]int64, spins)
	for i := range over {
		start := Mono()
		end := SpinFrom(start, d)
		if end < start+int64(d) {
			t.Fatalf("spin %d returned %d ns after its start, before d = %v", i, end-start, d)
		}
		if after := Mono(); after < end {
			t.Fatalf("spin %d returned a reading %d ns in the future", i, end-after)
		}
		over[i] = end - start - int64(d)
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	p50 := over[spins/2]
	t.Logf("overshoot over %d spins of %v: p50 %d ns, p99 %d ns", spins, d, p50, over[spins*99/100])
	if !raceEnabled && p50 >= 100 {
		t.Errorf("p50 overshoot %d ns, want < 100", p50)
	}
}

func TestSpinFromZeroAndNegativeReturnStart(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		if end := SpinFrom(42, d); end != 42 {
			t.Errorf("SpinFrom(42, %v) = %d, want the start reading", d, end)
		}
	}
}
