package infotheory

import "math"

// This file holds the shared Blahut–Arimoto inner-loop kernels used by
// Capacity, CapacityPerCost and MutualInformation. The kernels operate
// on the DMC's contiguous flat backing and hoist math.Log2 out of the
// per-cell loops via a per-iteration log table over the matrix's
// distinct cell values. Bit-exactness contract: every kernel performs
// the same floating-point operations on the same operands in the same
// order as the scalar reference loops (see reference.go), so results
// are identical to the last bit — E5's |closed − BA| column is printed
// at 1e-16 granularity and must not move.

// maxValueClasses caps the distinct-value dictionary built by NewDMC.
// Channels in this repository are highly structured (MSC, converted
// channels, cascades) and have a handful of distinct entries; a matrix
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
	if c.cls == nil {
		return 0
	}
	return len(c.vals) * c.NumOutputs()
}

// outputDist computes the output distribution py induced by px with the
// same accumulation order as the reference loop.
//
// The columns are processed four at a time so that four accumulators
// ride in registers across the x scan: the reference loop's
// py[y] += px[x]·W(y|x) is a load-add-store per cell whose carried
// dependency (the same py[y] across consecutive x) serializes on FMA
// latency; four independent register chains overlap it. Each py[y]
// still sums exactly the reference's operands in ascending-x order
// (including the px[x] == 0 skip), so the result is bit-identical.
func (c *DMC) outputDist(px, py []float64) {
	ny := len(py)
	y := 0
	for ; y+4 <= ny; y += 4 {
		var s0, s1, s2, s3 float64
		for x, row := range c.w {
			pxx := px[x]
			if pxx == 0 {
				continue
			}
			r := row[y : y+4 : y+4]
			s0 += pxx * r[0]
			s1 += pxx * r[1]
			s2 += pxx * r[2]
			s3 += pxx * r[3]
		}
		py[y], py[y+1], py[y+2], py[y+3] = s0, s1, s2, s3
	}
	for ; y < ny; y++ {
		var s float64
		for x, row := range c.w {
			pxx := px[x]
			if pxx == 0 {
				continue
			}
			s += pxx * row[y]
		}
		py[y] = s
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
	// Every matrix Capacity sees outside tests is the Figure 5 converted
	// channel MSC(2^n, α·Pi): two value classes, both positive whenever
	// Pi > 0. Those rows are processed four at a time: each d[x] is a
	// strictly sequential sum (y ascending, the reference's association
	// order), which serializes on FMA latency; four rows' independent
	// chains overlap it. Both values are positive, so the reference's
	// p > 0 guard is true for every cell and dropping it skips no terms;
	// the log term is a branchless select over the two contiguous
	// log-table rows. Every other matrix (Pi = 0, where one class is
	// zero, and the test-only channels with one or three or more
	// classes) takes the per-row loop below, which is the reference's
	// loop with the log table, so every d[x] is bit-identical on both
	// paths.
	nx := len(c.w)
	x := 0
	if len(c.vals) == 2 && c.vals[0] > 0 && c.vals[1] > 0 {
		l0 := logs[0:ny:ny]
		l1 := logs[ny : 2*ny : 2*ny]
		for ; x+4 <= nx; x += 4 {
			r0 := c.flat[(x+0)*ny : (x+0)*ny+ny : (x+0)*ny+ny]
			r1 := c.flat[(x+1)*ny : (x+1)*ny+ny : (x+1)*ny+ny]
			r2 := c.flat[(x+2)*ny : (x+2)*ny+ny : (x+2)*ny+ny]
			r3 := c.flat[(x+3)*ny : (x+3)*ny+ny : (x+3)*ny+ny]
			c0 := c.cls[(x+0)*ny : (x+0)*ny+ny : (x+0)*ny+ny]
			c1 := c.cls[(x+1)*ny : (x+1)*ny+ny : (x+1)*ny+ny]
			c2 := c.cls[(x+2)*ny : (x+2)*ny+ny : (x+2)*ny+ny]
			c3 := c.cls[(x+3)*ny : (x+3)*ny+ny : (x+3)*ny+ny]
			var d0, d1, d2, d3 float64
			for y := 0; y < ny; y++ {
				t0, t1, t2, t3 := l0[y], l0[y], l0[y], l0[y]
				if c0[y] != 0 {
					t0 = l1[y]
				}
				if c1[y] != 0 {
					t1 = l1[y]
				}
				if c2[y] != 0 {
					t2 = l1[y]
				}
				if c3[y] != 0 {
					t3 = l1[y]
				}
				d0 += r0[y] * t0
				d1 += r1[y] * t1
				d2 += r2[y] * t2
				d3 += r3[y] * t3
			}
			d[x], d[x+1], d[x+2], d[x+3] = d0, d1, d2, d3
		}
	}
	for ; x < nx; x++ {
		row := c.flat[x*ny : x*ny+ny : x*ny+ny]
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
