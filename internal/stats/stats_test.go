package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4; sample variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestRSD(t *testing.T) {
	xs := []float64{100, 102, 98, 101, 99}
	rsd, err := RSD(xs)
	if err != nil {
		t.Fatalf("RSD: %v", err)
	}
	if rsd <= 0 || rsd > 5 {
		t.Errorf("RSD = %v, want small positive value", rsd)
	}
	if _, err := RSD([]float64{1}); err == nil {
		t.Error("RSD of one sample should fail")
	}
	if _, err := RSD([]float64{1, -1}); err == nil {
		t.Error("RSD with zero mean should fail")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err != ErrMismatchedLengths {
		t.Errorf("want ErrMismatchedLengths, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Errorf("want ErrInsufficientData, got %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance should fail")
	}
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{43, 21, 25, 42, 57, 59}
	ys := []float64{99, 65, 79, 75, 87, 81}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 0.5298, 1e-3) {
		t.Errorf("Pearson = %v, want ~0.5298", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	// Property: |r| <= 1 for any inputs that do not error.
	f := func(pairs []struct{ X, Y float64 }) bool {
		if len(pairs) < 3 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.Abs(p.X) > 1e100 || math.Abs(p.Y) > 1e100 {
				return true
			}
			xs[i], ys[i] = p.X, p.Y
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		return r <= 1+1e-9 && r >= -1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile should fail")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out of range percentile should fail")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty slices should give 0")
	}
}
