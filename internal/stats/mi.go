package stats

import (
	"fmt"
	"math"
)

// JointCounter accumulates joint observations of a discrete input X and
// output Y and estimates the empirical mutual information I(X;Y) in
// bits. It is used to measure the information actually conveyed by a
// simulated protocol run, for comparison with the analytic bounds.
type JointCounter struct {
	nx, ny int
	counts []int // row-major [x][y]
	total  int
}

// NewJointCounter returns a counter over alphabets of the given sizes.
// It returns an error if either size is non-positive.
func NewJointCounter(nx, ny int) (*JointCounter, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("stats: joint counter needs positive alphabet sizes, got %dx%d", nx, ny)
	}
	return &JointCounter{nx: nx, ny: ny, counts: make([]int, nx*ny)}, nil
}

// Add records one (x, y) observation. It returns an error if either
// index is out of range.
func (j *JointCounter) Add(x, y int) error {
	if x < 0 || x >= j.nx || y < 0 || y >= j.ny {
		return fmt.Errorf("stats: observation (%d, %d) out of range %dx%d", x, y, j.nx, j.ny)
	}
	j.counts[x*j.ny+y]++
	j.total++
	return nil
}

// Total returns the number of observations.
func (j *JointCounter) Total() int { return j.total }

// MutualInformation returns the plug-in estimate of I(X;Y) in bits
// (0 for an empty counter).
func (j *JointCounter) MutualInformation() float64 {
	if j.total == 0 {
		return 0
	}
	n := float64(j.total)
	px := make([]float64, j.nx)
	py := make([]float64, j.ny)
	for x := 0; x < j.nx; x++ {
		for y := 0; y < j.ny; y++ {
			p := float64(j.counts[x*j.ny+y]) / n
			px[x] += p
			py[y] += p
		}
	}
	var mi float64
	for x := 0; x < j.nx; x++ {
		for y := 0; y < j.ny; y++ {
			p := float64(j.counts[x*j.ny+y]) / n
			if p > 0 {
				mi += p * math.Log2(p/(px[x]*py[y]))
			}
		}
	}
	if mi < 0 {
		mi = 0 // guard against floating point jitter
	}
	return mi
}
