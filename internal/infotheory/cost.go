package infotheory

import (
	"fmt"
	"math"
)

// CapacityPerCost computes the capacity per unit cost of a DMC whose
// input symbols have positive costs (for covert timing channels, the
// cost is the symbol's duration): the maximum over input distributions
// q of I(q) / sum_x q(x) cost(x), in bits per unit cost.
//
// The objective is a ratio of a concave functional and a positive
// linear functional of q, so it is quasi-concave; the solver uses the
// Dinkelbach parametric method: for a rate guess λ, maximize
// I(q) - λ·E[cost] (a concave problem solved by a Blahut–Arimoto-style
// iteration with per-symbol cost tilts) and bisect on λ until the
// optimal value is zero.
//
// It needs a dense channel and rejects the implicit M-ary symmetric
// form of MSC.
func (c *DMC) CapacityPerCost(costs []float64, tol float64, maxIter int) (float64, []float64, error) {
	if c.w == nil {
		return 0, nil, fmt.Errorf("infotheory: CapacityPerCost needs a dense channel, not the implicit MSC form")
	}
	if len(costs) != c.NumInputs() {
		return 0, nil, fmt.Errorf("infotheory: %d costs for %d inputs", len(costs), c.NumInputs())
	}
	minCost := math.Inf(1)
	for i, t := range costs {
		if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return 0, nil, fmt.Errorf("infotheory: cost %d is %v, want positive finite", i, t)
		}
		if t < minCost {
			minCost = t
		}
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 200
	}

	// maxTiltedInfo(λ) = max_q I(q) − λ·E_q[cost] is strictly
	// decreasing in λ, and its root λ* is the capacity per unit cost.
	// Upper bracket: even a noiseless channel cannot beat log2|X| bits
	// per use, so λ <= log2|X| / minCost.
	lo, hi := 0.0, math.Log2(float64(c.NumInputs()))/minCost+1e-12
	v0, bestQ := c.maxTiltedInfo(lo, costs)
	if v0 <= tol {
		return 0, bestQ, nil // capacity is zero
	}
	for iter := 0; iter < maxIter; iter++ {
		mid := (lo + hi) / 2
		v, q := c.maxTiltedInfo(mid, costs)
		if v > 0 {
			lo = mid
			bestQ = q
		} else {
			hi = mid
		}
		if hi-lo < tol {
			break
		}
	}
	return (lo + hi) / 2, bestQ, nil
}

// maxTiltedInfo maximizes I(q) − λ·E_q[cost] by the cost-constrained
// Blahut–Arimoto iteration, one math.Log2 per positive matrix cell per
// iteration, and returns the optimum value and optimizing distribution.
func (c *DMC) maxTiltedInfo(lambda float64, costs []float64) (float64, []float64) {
	nx, ny := c.NumInputs(), c.NumOutputs()
	q := make([]float64, nx)
	for x := range q {
		q[x] = 1 / float64(nx)
	}
	py := make([]float64, ny)
	d := make([]float64, nx)
	best := math.Inf(-1)
	for iter := 0; iter < 2000; iter++ {
		for y := range py {
			py[y] = 0
		}
		for x, row := range c.w {
			if q[x] == 0 {
				continue
			}
			for y, p := range row {
				py[y] += q[x] * p
			}
		}
		for x, row := range c.w {
			var dx float64
			for y, p := range row {
				if p > 0 && py[y] > 0 {
					dx += p * math.Log2(p/py[y])
				}
			}
			d[x] = dx - lambda*costs[x]
		}
		var cur float64
		for x := range q {
			cur += q[x] * d[x]
		}
		if cur > best {
			best = cur
		}
		// Multiplicative update toward the tilted optimum.
		var norm float64
		for x := range q {
			q[x] *= math.Exp2(d[x])
			norm += q[x]
		}
		if norm == 0 {
			break
		}
		for x := range q {
			q[x] /= norm
		}
		// Convergence check via the duality-style gap.
		maxD := math.Inf(-1)
		for x := range d {
			if d[x] > maxD {
				maxD = d[x]
			}
		}
		if maxD-cur < 1e-12 {
			best = cur
			break
		}
	}
	return best, append([]float64(nil), q...)
}
