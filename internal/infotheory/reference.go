package infotheory

import (
	"fmt"
	"math"
)

// This file holds the scalar Blahut–Arimoto loop. It is both the solver
// Capacity runs on every dense channel and the ground truth the
// implicit M-ary symmetric kernels in ba.go are measured against:
// differential tests assert bit-identical results on the dense twin,
// and BenchmarkBlahutArimotoMSC/*/reference times it. Keep it dumb and
// per-cell — its value is being obviously equivalent to the textbook
// iteration.

// CapacityReference computes the channel capacity with the per-cell
// scalar Blahut–Arimoto loop (one math.Log2 per positive matrix cell
// per iteration). It reads only the dense matrix and rejects the
// implicit M-ary symmetric form, so the implicit kernels are always
// checked against a dense twin, never against themselves.
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
