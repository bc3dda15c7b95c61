// Package stats provides the small statistical toolkit used throughout the
// reproduction: descriptive statistics, an online mean accumulator,
// Pearson correlation, relative standard deviation, percentiles, linear
// regression and histograms.
//
// The paper reports Pearson correlation coefficients between its network
// overhead metric and application execution time (r = 0.97 for the toy
// application, r = 0.92 for Parquet) and a relative standard deviation
// below 5% for repeated Parquet runs; this package implements exactly
// those computations so the experiment harness can regenerate them.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided (for example Pearson correlation of a single point).
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrMismatchedLengths is returned by bivariate computations when the two
// sample slices differ in length.
var ErrMismatchedLengths = errors.New("stats: mismatched sample lengths")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when fewer than two samples are provided.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// RSD returns the relative standard deviation (coefficient of variation)
// of xs expressed as a percentage of the mean, as used by the paper's
// repeatability study ("Relative Standard Deviation ... less than five
// percent"). It returns an error when the mean is zero or when fewer than
// two samples are provided.
func RSD(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	m := Mean(xs)
	if m == 0 {
		return 0, errors.New("stats: zero mean, RSD undefined")
	}
	return 100 * StdDev(xs) / math.Abs(m), nil
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. The slices must have equal length and contain at
// least two points with nonzero variance in each dimension.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatchedLengths
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance, correlation undefined")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. The input need not be
// sorted; it is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
