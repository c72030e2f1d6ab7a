package infotheory

import "math"

// This file holds the Blahut–Arimoto inner-loop kernels used by
// Capacity and CapacityPerCost. On a dense channel they stream the
// DMC's contiguous flat backing and hoist math.Log2 out of the per-cell
// loops via a per-iteration log table over the matrix's distinct cell
// values; on the implicit M-ary symmetric channel they derive each cell
// from x == y. Bit-exactness contract: every kernel performs the same
// floating-point operations on the same operands in the same order as
// the scalar reference loops (see reference.go) run on the dense
// matrix, so results are identical to the last bit — E5's
// |closed − BA| column is printed at 1e-16 granularity and must not
// move.

// maxValueClasses caps the distinct-value dictionary built by NewDMC.
// Dense channels in this repository (BSC, BEC, the Z-channel, timing's
// calibration channel) have a handful of distinct entries; a matrix
// with more distinct values than this falls back to the per-cell
// math.Log2 path, which is exactly the reference loop.
const maxValueClasses = 64

// nonNegative clamps tiny negative values arising from floating-point
// cancellation to zero. Mutual information, capacity and the BA duality
// gap are all mathematically non-negative; any negative result is
// numerical jitter. NaN is passed through unchanged.
func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// buildClasses scans the flat matrix and assigns each cell the index of
// its value in a dictionary of distinct values (exact float64 equality,
// so substituting vals[cls[i]] for flat[i] is a no-op bit-wise). It
// returns (nil, nil) when the matrix has more than maxValueClasses
// distinct values.
func buildClasses(flat []float64) (vals []float64, cls []uint16) {
	cls = make([]uint16, len(flat))
	for i, p := range flat {
		j := 0
		for ; j < len(vals); j++ {
			if vals[j] == p {
				break
			}
		}
		if j == len(vals) {
			if len(vals) == maxValueClasses {
				return nil, nil
			}
			vals = append(vals, p)
		}
		cls[i] = uint16(j)
	}
	return vals, cls
}

// logsLen returns the size of the per-iteration log-table scratch a
// caller must provide to divergences/tiltedDivergences, or 0 when the
// matrix has no value dictionary and the kernels use the fallback path.
func (c *DMC) logsLen() int {
	if c.w == nil {
		return 2 * c.nx
	}
	if c.cls == nil {
		return 0
	}
	return len(c.vals) * c.NumOutputs()
}

// outputDist computes the output distribution py induced by px: each
// py[y] sums px[x]·W(y|x) over ascending x, skipping px[x] == 0, as the
// reference loop does.
func (c *DMC) outputDist(px, py []float64) {
	if c.w == nil {
		// Column y of the M-ary symmetric matrix is px[x]·off over
		// x != y and px[y]·diag.
		symmetricSums(py, c.diag, px, c.off, px)
		return
	}
	clear(py)
	for x, row := range c.w {
		pxx := px[x]
		if pxx == 0 {
			continue
		}
		for y, p := range row {
			py[y] += pxx * p
		}
	}
}

// logRatios fills logs[v*ny+y] = log2(vals[v]/py[y]) for every positive
// dictionary value. This is the math.Log2 hoist: nv·ny calls instead of
// one per positive matrix cell per iteration. The layout is class-major
// so each class is one contiguous row of the table. When skipZeroPy is
// set, entries for outputs with py[y] == 0 are left untouched; callers
// using that mode must guard reads with py[y] > 0 (the cost-tilted
// kernels do).
func (c *DMC) logRatios(py, logs []float64, skipZeroPy bool) {
	ny := len(py)
	for v, val := range c.vals {
		if val <= 0 {
			continue
		}
		row := logs[v*ny : v*ny+ny : v*ny+ny]
		for y, pyy := range py {
			if skipZeroPy && pyy == 0 {
				continue
			}
			row[y] = math.Log2(val / pyy)
		}
	}
}

// divergences fills d[x] = D(W(·|x) || py) in bits with the Capacity
// guard (p > 0 only; py[y] == 0 with p > 0 yields +Inf, as in the
// reference). logs must have logsLen() capacity and is clobbered.
func (c *DMC) divergences(py, logs, d []float64) {
	if c.w == nil {
		c.mscDivergences(py, logs, d)
		return
	}
	ny := len(py)
	if c.cls == nil {
		for x, row := range c.w {
			var dx float64
			for y, p := range row {
				if p > 0 {
					dx += p * math.Log2(p/py[y])
				}
			}
			d[x] = dx
		}
		return
	}
	c.logRatios(py, logs, false)
	for x, row := range c.w {
		cls := c.cls[x*ny : x*ny+ny : x*ny+ny]
		var dx float64
		for y, p := range row {
			if p > 0 {
				dx += p * logs[int(cls[y])*ny+y]
			}
		}
		d[x] = dx
	}
}

// tiltedDivergences fills d[x] = D(W(·|x) || py) − λ·cost[x] with the
// cost-constrained guard (p > 0 && py[y] > 0), matching the reference
// tilted loop bit-for-bit.
func (c *DMC) tiltedDivergences(py, logs, d, costs []float64, lambda float64) {
	ny := len(py)
	if c.cls == nil {
		for x, row := range c.w {
			var dx float64
			for y, p := range row {
				if p > 0 && py[y] > 0 {
					dx += p * math.Log2(p/py[y])
				}
			}
			d[x] = dx - lambda*costs[x]
		}
		return
	}
	c.logRatios(py, logs, true)
	for x := range c.w {
		row := c.flat[x*ny : x*ny+ny : x*ny+ny]
		cls := c.cls[x*ny : x*ny+ny : x*ny+ny]
		var dx float64
		for y, p := range row {
			if p > 0 && py[y] > 0 {
				dx += p * logs[int(cls[y])*ny+y]
			}
		}
		d[x] = dx - lambda*costs[x]
	}
}

// mscDivergences is divergences on the implicit M-ary symmetric form:
// row x sums off·log2(off/py[y]) over y != x and diag·log2(diag/py[x]).
// The log table's two halves hold the values the dense class table
// holds; a zero cell's half is all 0, so symmetricSums skips that
// cell's terms where the reference's p > 0 guard does.
func (c *DMC) mscDivergences(py, logs, d []float64) {
	m := len(py)
	ld, lo := logs[:m:m], logs[m:2*m:2*m]
	for y, q := range py {
		ld[y], lo[y] = 0, 0
		if c.diag > 0 {
			ld[y] = math.Log2(c.diag / q)
		}
		if c.off > 0 {
			lo[y] = math.Log2(c.off / q)
		}
	}
	symmetricSums(d, c.diag, ld, c.off, lo)
}

// symmetricSums is the implicit form's kernel. It sets each out[j] to
// the reference's sum for row or column j of the M-ary symmetric
// matrix: over k ascending, diag·va[k] at k == j and off·vb[k]
// elsewhere, as acc += p * t (so whatever contraction the compiler
// applies to the reference applies here too), skipping each term whose
// vector entry is 0. Those are the terms the reference skips, plus, in
// divergences, any whose log is exactly 0: the reference adds that
// term, but it is ±0, and a sum that starts at +0 is never -0, so
// adding ±0 to it changes no bit.
//
// The terms before out[j]'s diagonal — off·vb[k] for k < j — begin
// every later sum too, so that shared prefix (pre) is carried forward
// instead of recomputed, which roughly halves the additions without
// reordering any sum. Four sums share each pass over the remaining
// terms, to overlap their add latencies.
func symmetricSums(out []float64, diag float64, va []float64, off float64, vb []float64) {
	var pre float64 // Σ off·vb[k] over k < j
	j := 0
	for ; j+4 <= len(out); j += 4 {
		a, b := va[j:j+4:j+4], vb[j:j+4:j+4]
		s0 := addTerm(pre, diag, a[0])
		pre = addTerm(pre, off, b[0])
		s1 := addTerm(pre, diag, a[1])
		s0 = addTerm(s0, off, b[1])
		pre = addTerm(pre, off, b[1])
		s2 := addTerm(pre, diag, a[2])
		s0 = addTerm(s0, off, b[2])
		s1 = addTerm(s1, off, b[2])
		pre = addTerm(pre, off, b[2])
		s3 := addTerm(pre, diag, a[3])
		s0 = addTerm(s0, off, b[3])
		s1 = addTerm(s1, off, b[3])
		s2 = addTerm(s2, off, b[3])
		pre = addTerm(pre, off, b[3])
		for _, v := range vb[j+4:] {
			if v != 0 {
				s0 += off * v
				s1 += off * v
				s2 += off * v
				s3 += off * v
			}
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		s := addTerm(pre, diag, va[j])
		for _, v := range vb[j+1:] {
			s = addTerm(s, off, v)
		}
		pre = addTerm(pre, off, vb[j])
		out[j] = s
	}
}

// addTerm returns acc + p·v, or acc when v is 0.
func addTerm(acc, p, v float64) float64 {
	if v != 0 {
		acc += p * v
	}
	return acc
}
