// Package stats provides the statistical utilities shared by the
// simulations and experiment harnesses: proportion confidence
// intervals, autocorrelation, histograms, empirical mutual information,
// and edit-distance alignment used to count deletion/insertion/
// substitution events in observed symbol traces.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Proportion summarizes a Bernoulli estimate k successes out of n trials
// with a Wilson 95% confidence interval, which behaves sensibly at the
// extremes (k = 0 or k = n) where the normal interval collapses.
type Proportion struct {
	K, N int
}

// Estimate returns the point estimate k/n (0 if n == 0).
func (p Proportion) Estimate() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.K) / float64(p.N)
}

// Wilson95 returns the Wilson score 95% confidence interval.
func (p Proportion) Wilson95() (lo, hi float64) {
	if p.N == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(p.N)
	phat := float64(p.K) / n
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	// At the boundaries the Wilson endpoint is exactly 0 (K = 0) or 1
	// (K = N) analytically, but center and half only agree to rounding
	// error; pin them so interval-membership tests of the boundary
	// succeed.
	if lo < 0 || p.K == 0 {
		lo = 0
	}
	if hi > 1 || p.K == p.N {
		hi = 1
	}
	return lo, hi
}

// AutoCorrelation returns the lag-k sample autocorrelation of xs,
// used to diagnose burstiness in channel event traces. It returns an
// error for non-positive lags or series too short to estimate, and 0
// for a constant series (zero variance).
func AutoCorrelation(xs []float64, lag int) (float64, error) {
	if lag < 1 {
		return 0, fmt.Errorf("stats: lag %d, want >= 1", lag)
	}
	if len(xs) <= lag+1 {
		return 0, fmt.Errorf("stats: series of %d too short for lag %d", len(xs), lag)
	}
	mean := Mean(xs)
	var num, den float64
	for i := range xs {
		d := xs[i] - mean
		den += d * d
		if i+lag < len(xs) {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// Histogram counts observations in equal-width bins over [min, max).
// Observations outside the range are counted in the nearest edge bin;
// NaN observations are discarded (and counted separately) rather than
// fed through a float-to-int conversion, whose result for NaN is
// implementation-defined in Go.
type Histogram struct {
	min, max  float64
	counts    []int
	total     int
	discarded int
}

// NewHistogram returns a histogram with the given bin count over
// [min, max). It returns an error if bins < 1 or max <= min.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bin, got %d", bins)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) is empty", min, max)
	}
	return &Histogram{min: min, max: max, counts: make([]int, bins)}, nil
}

// Add records one observation. NaN observations are discarded.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.discarded++
		return
	}
	h.total++
	// Resolve out-of-range values (including ±Inf) by float comparison
	// before the int conversion, which is only defined in range.
	if x <= h.min {
		h.counts[0]++
		return
	}
	if x >= h.max {
		h.counts[len(h.counts)-1]++
		return
	}
	idx := int(float64(len(h.counts)) * (x - h.min) / (h.max - h.min))
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int {
	out := make([]int, len(h.counts))
	copy(out, h.counts)
	return out
}

// Total returns the number of observations recorded (NaNs excluded).
func (h *Histogram) Total() int { return h.total }

// Discarded returns the number of NaN observations dropped by Add.
func (h *Histogram) Discarded() int { return h.discarded }
