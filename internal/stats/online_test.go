package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if got, want := o.Mean(), Mean(xs); !almostEqual(got, want, 1e-9) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := o.Count(); got != uint64(len(xs)) {
		t.Errorf("Count = %v", got)
	}
	if got, want := o.Sum(), Mean(xs)*float64(len(xs)); !almostEqual(got, want, 1e-9) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Count() != 0 || o.Sum() != 0 {
		t.Error("zero-value Online should report zeros")
	}
}

func TestOnlineReset(t *testing.T) {
	var o Online
	o.Add(10)
	o.Add(20)
	o.Reset()
	if o.Count() != 0 || o.Mean() != 0 {
		t.Error("Reset did not clear accumulator")
	}
	o.Add(7)
	if o.Mean() != 7 {
		t.Errorf("post-reset Mean = %v", o.Mean())
	}
}

func TestOnlineAddN(t *testing.T) {
	var o Online
	o.Add(2)
	o.AddN(3, 12) // batch of 3 samples summing to 12, mean 4
	if got := o.Count(); got != 4 {
		t.Errorf("Count = %v, want 4", got)
	}
	if got, want := o.Mean(), 14.0/4.0; !almostEqual(got, want, 1e-9) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := o.Sum(), 14.0; !almostEqual(got, want, 1e-9) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// AddN with zero count is a no-op.
	o.AddN(0, 999)
	if o.Count() != 4 {
		t.Error("AddN(0) should be a no-op")
	}
}

func TestOnlineAddNIntoEmpty(t *testing.T) {
	var o Online
	o.AddN(4, 40)
	if o.Mean() != 10 || o.Count() != 4 {
		t.Errorf("AddN into empty: mean=%v count=%v", o.Mean(), o.Count())
	}
}

func TestOnlineConcurrent(t *testing.T) {
	var o Online
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				o.Add(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := o.Count(); got != workers*perWorker {
		t.Fatalf("Count = %v, want %v", got, workers*perWorker)
	}
	want := float64(perWorker+1) / 2
	if got := o.Mean(); !almostEqual(got, want, 1e-6) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestOnlineMatchesBatchProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		scale := 1.0
		if len(xs) > 0 {
			if m := math.Abs(Max(xs)) + math.Abs(Min(xs)); m > 1 {
				scale = m * m
			}
		}
		return almostEqual(o.Mean(), Mean(xs), 1e-6*scale) &&
			o.Count() == uint64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
