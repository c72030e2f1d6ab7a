package infotheory

import (
	"fmt"
	"math"
)

// This file retains the pre-optimization scalar Blahut–Arimoto kernels.
// They are the ground truth the optimized kernels in ba.go are measured
// against: differential tests assert bit-identical results, and
// BenchmarkBlahutArimotoMSC/*/reference times them. Keep them dumb and
// per-cell — their value is being obviously equivalent to the textbook
// iteration.

// CapacityReference computes the channel capacity with the original
// per-cell scalar Blahut–Arimoto loop (one math.Log2 per positive
// matrix cell per iteration). Results are bit-identical to Capacity.
// It reads only the dense matrix and rejects the implicit M-ary
// symmetric form, so the implicit kernels are always checked against a
// dense twin, never against themselves.
func (c *DMC) CapacityReference(tol float64, maxIter int) (CapacityResult, error) {
	if c.w == nil {
		return CapacityResult{}, fmt.Errorf("infotheory: CapacityReference needs a dense channel, not the implicit MSC form")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	nx, ny := c.NumInputs(), c.NumOutputs()
	px := make([]float64, nx)
	for x := range px {
		px[x] = 1 / float64(nx)
	}
	d := make([]float64, nx)
	py := make([]float64, ny)

	var res CapacityResult
	for iter := 1; iter <= maxIter; iter++ {
		for y := range py {
			py[y] = 0
		}
		for x, row := range c.w {
			if px[x] == 0 {
				continue
			}
			for y, p := range row {
				py[y] += px[x] * p
			}
		}
		for x, row := range c.w {
			var dx float64
			for y, p := range row {
				if p > 0 {
					dx += p * math.Log2(p/py[y])
				}
			}
			d[x] = dx
		}
		var lower float64
		upper := math.Inf(-1)
		for x := range d {
			lower += px[x] * d[x]
			if d[x] > upper {
				upper = d[x]
			}
		}
		res = CapacityResult{Capacity: lower, Iterations: iter, Gap: nonNegative(upper - lower)}
		if res.Gap <= tol {
			break
		}
		var norm float64
		for x := range px {
			px[x] *= math.Exp2(d[x] - lower)
			norm += px[x]
		}
		for x := range px {
			px[x] /= norm
		}
	}
	res.Capacity = nonNegative(res.Capacity)
	res.Input = append([]float64(nil), px...)
	return res, nil
}

// maxTiltedInfoReference is the original scalar cost-tilted BA
// iteration; maxTiltedInfo must match it bit-for-bit.
func (c *DMC) maxTiltedInfoReference(lambda float64, costs []float64) (float64, []float64) {
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
