package infotheory

import "math"

// This file holds the Blahut–Arimoto kernels Capacity runs on the
// implicit M-ary symmetric channel, deriving each cell from x == y
// instead of reading a matrix. Dense channels run CapacityReference
// (see reference.go). Bit-exactness contract: the kernels perform the
// same floating-point operations on the same operands in the same order
// as the reference loop run on the dense twin, so results are identical
// to the last bit — E5's |closed − BA| column is printed at 1e-16
// granularity and must not move.

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

// outputDist computes the output distribution py induced by px: column
// y of the M-ary symmetric matrix is px[x]·off over x != y and
// px[y]·diag, summed over ascending x and skipping px[x] == 0, as the
// reference loop does.
func (c *DMC) outputDist(px, py []float64) {
	symmetricSums(py, c.diag, px, c.off, px)
}

// divergences fills d[x] = D(W(·|x) || py) in bits: row x sums
// off·log2(off/py[y]) over y != x and diag·log2(diag/py[x]). logs must
// hold 2·len(py) entries and is clobbered: its two halves hold the
// logs of diag and off over py. A zero cell's half is all 0, so
// symmetricSums skips that cell's terms where the reference's p > 0
// guard does.
func (c *DMC) divergences(py, logs, d []float64) {
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
