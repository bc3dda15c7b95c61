package stats

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, x := range []float64{5, 15, 15, 95, 99.9} {
		h.Observe(x)
	}
	b := h.Buckets()
	if b[0] != 1 || b[1] != 2 || b[9] != 2 {
		t.Errorf("buckets = %v", b)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %v", h.Count())
	}
	under, over := h.UnderOver()
	if under != 0 || over != 0 {
		t.Errorf("under/over = %v/%v", under, over)
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(10, 20, 5)
	h.Observe(9.99)
	h.Observe(20)
	h.Observe(1e9)
	h.Observe(-5)
	under, over := h.UnderOver()
	if under != 2 || over != 2 {
		t.Errorf("under/over = %v/%v, want 2/2", under, over)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %v, want 4", h.Count())
	}
}

func TestHistogramBoundaryGoesToLowerEdgeOfBucket(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(3) // exactly on the edge between bucket 2 and 3
	b := h.Buckets()
	if b[3] != 1 {
		t.Errorf("boundary sample landed in %v", b)
	}
}

func TestHistogramHPXEncoding(t *testing.T) {
	h := NewHistogram(0, 1000, 4)
	h.Observe(100)
	h.Observe(600)
	h.Observe(600)
	vals := h.Values()
	want := []int64{0, 1000, 250, 1, 0, 2, 0}
	if len(vals) != len(want) {
		t.Fatalf("Values len = %v, want %v", len(vals), len(want))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("Values[%d] = %v, want %v (all %v)", i, vals[i], want[i], vals)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Observe(1)
	h.Observe(11)
	h.Reset()
	if h.Count() != 0 {
		t.Error("Reset did not clear histogram")
	}
	if b := h.Buckets(); b[0] != 0 || b[1] != 0 {
		t.Errorf("buckets after reset = %v", b)
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 5) },
		func() { NewHistogram(10, 5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid histogram config")
				}
			}()
			f()
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0, 1000, 10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 1000))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("Count = %v, want 4000", h.Count())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Observe(1)
	h.Observe(-1)
	h.Observe(100)
	s := h.String()
	if !strings.Contains(s, "n=3") {
		t.Errorf("String output missing count: %q", s)
	}
}

func TestHistogramConservationProperty(t *testing.T) {
	// Property: count == sum(buckets) + under + over for any observations.
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 13)
		for _, x := range xs {
			h.Observe(x)
		}
		var inRange uint64
		for _, b := range h.Buckets() {
			inRange += b
		}
		u, o := h.UnderOver()
		return h.Count() == inRange+u+o && h.Count() == uint64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
