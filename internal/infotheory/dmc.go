package infotheory

import (
	"fmt"
	"math"
)

// DMC is a discrete memoryless channel given by its transition matrix:
// W[x][y] = P(output y | input x). Rows must be probability
// distributions over a common output alphabet.
//
// The matrix is stored in one contiguous float64 slab (flat) with w
// holding per-row views into it, so the Blahut–Arimoto inner loops in
// ba.go stream over dense memory. vals/cls form the distinct-value
// dictionary those kernels use to hoist math.Log2 out of the per-cell
// loops; both are nil when the matrix has more than maxValueClasses
// distinct entries.
type DMC struct {
	w    [][]float64
	flat []float64
	vals []float64
	cls  []uint16
}

// NewDMC validates and wraps a transition matrix. The matrix is copied.
func NewDMC(w [][]float64) (*DMC, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("infotheory: DMC needs at least one input symbol")
	}
	ny := len(w[0])
	flat := make([]float64, 0, len(w)*ny)
	for x, row := range w {
		if len(row) != ny {
			return nil, fmt.Errorf("infotheory: DMC row %d has %d entries, want %d", x, len(row), ny)
		}
		if err := validateDist(row); err != nil {
			return nil, fmt.Errorf("infotheory: DMC row %d: %w", x, err)
		}
		flat = append(flat, row...)
	}
	vals, cls := buildClasses(flat)
	return newDMC(flat, len(w), vals, cls), nil
}

// newDMC wraps an nx-row flat matrix slab whose rows already passed
// validateDist, together with its value dictionary (see buildClasses),
// without copying either.
func newDMC(flat []float64, nx int, vals []float64, cls []uint16) *DMC {
	ny := len(flat) / nx
	rows := make([][]float64, nx)
	for x := range rows {
		rows[x] = flat[x*ny : x*ny+ny : x*ny+ny]
	}
	return &DMC{w: rows, flat: flat, vals: vals, cls: cls}
}

// NumInputs returns the input alphabet size.
func (c *DMC) NumInputs() int { return len(c.w) }

// NumOutputs returns the output alphabet size.
func (c *DMC) NumOutputs() int { return len(c.w[0]) }

// Prob returns P(y | x).
func (c *DMC) Prob(x, y int) float64 { return c.w[x][y] }

// MutualInformation returns I(X;Y) in bits for the given input
// distribution px. It returns an error if px is not a valid distribution
// over the input alphabet.
func (c *DMC) MutualInformation(px []float64) (float64, error) {
	if len(px) != c.NumInputs() {
		return 0, fmt.Errorf("infotheory: input distribution has %d entries, want %d", len(px), c.NumInputs())
	}
	if err := validateDist(px); err != nil {
		return 0, err
	}
	ny := c.NumOutputs()
	py := make([]float64, ny)
	for x, row := range c.w {
		for y, p := range row {
			py[y] += px[x] * p
		}
	}
	var mi float64
	for x, row := range c.w {
		if px[x] == 0 {
			continue
		}
		for y, p := range row {
			if p > 0 && py[y] > 0 {
				mi += px[x] * p * math.Log2(p/py[y])
			}
		}
	}
	return nonNegative(mi), nil
}

// CapacityResult holds the output of the Blahut–Arimoto iteration.
type CapacityResult struct {
	// Capacity is the channel capacity estimate in bits per use.
	Capacity float64
	// Input is the capacity-achieving input distribution.
	Input []float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Gap is the final upper-lower capacity gap, a convergence bound.
	Gap float64
}

// Capacity computes the channel capacity by the Blahut–Arimoto
// algorithm, iterating until the duality gap falls below tol or maxIter
// iterations elapse. A tol of 0 defaults to 1e-10 and maxIter of 0
// defaults to 10000.
func (c *DMC) Capacity(tol float64, maxIter int) (CapacityResult, error) {
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
	d := make([]float64, nx) // per-input divergence D(W(.|x) || py)
	py := make([]float64, ny)
	logs := make([]float64, c.logsLen())

	var res CapacityResult
	for iter := 1; iter <= maxIter; iter++ {
		c.outputDist(px, py)
		c.divergences(py, logs, d)
		// Lower bound: I(px) = sum_x px[x] d[x]; upper bound: max_x d[x].
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
		// Multiplicative update: px[x] *= 2^{d[x] - lower}, renormalize.
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

// BSC returns the binary symmetric channel with crossover probability p.
func BSC(p float64) (*DMC, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("infotheory: BSC crossover %v out of [0,1]", p)
	}
	return NewDMC([][]float64{{1 - p, p}, {p, 1 - p}})
}

// BEC returns the binary erasure channel with erasure probability p;
// output symbol 2 is the erasure.
func BEC(p float64) (*DMC, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("infotheory: BEC erasure %v out of [0,1]", p)
	}
	return NewDMC([][]float64{{1 - p, 0, p}, {0, 1 - p, p}})
}

// ZChannel returns the Z-channel in which input 1 flips to 0 with
// probability p and input 0 is always received correctly, the model
// underlying Moskowitz's timed Z-channel analysis [11].
func ZChannel(p float64) (*DMC, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("infotheory: Z-channel flip %v out of [0,1]", p)
	}
	return NewDMC([][]float64{{1, 0}, {p, 1 - p}})
}

// MSC returns the M-ary symmetric channel over m symbols in which a
// symbol is received correctly with probability 1-e and otherwise is
// replaced by one of the m-1 other symbols uniformly. This is the
// "converted channel" of the paper's Figure 5.
//
// The matrix is built in place: MSC writes the flat slab and its class
// table directly, and they are exactly what NewDMC would copy and
// buildClasses would derive from the same rows — cell (0,0) holds the
// diagonal value, so it is class 0, and the off-diagonal value is
// class 1 unless it equals the diagonal bit for bit.
func MSC(m int, e float64) (*DMC, error) {
	if m < 2 {
		return nil, fmt.Errorf("infotheory: MSC needs m >= 2, got %d", m)
	}
	if math.IsNaN(e) || e < 0 || e > 1 {
		return nil, fmt.Errorf("infotheory: MSC error rate %v out of [0,1]", e)
	}
	diag, off := 1-e, e/float64(m-1)
	vals := []float64{diag, off}
	var offCls uint16 = 1
	if off == diag {
		vals, offCls = vals[:1], 0
	}
	// Every row is the all-off-diagonal row with its diagonal cell
	// patched in: fill row 0, copy it down, then patch and validate.
	flat := make([]float64, m*m)
	cls := make([]uint16, m*m)
	for y := 0; y < m; y++ {
		flat[y], cls[y] = off, offCls
	}
	for x := 1; x < m; x++ {
		copy(flat[x*m:x*m+m], flat[:m])
		copy(cls[x*m:x*m+m], cls[:m])
	}
	for x := 0; x < m; x++ {
		flat[x*m+x], cls[x*m+x] = diag, 0
		if err := validateDist(flat[x*m : x*m+m]); err != nil {
			return nil, fmt.Errorf("infotheory: DMC row %d: %w", x, err)
		}
	}
	return newDMC(flat, m, vals, cls), nil
}

// BSCCapacity returns 1 - H(p), the closed-form BSC capacity.
func BSCCapacity(p float64) float64 { return 1 - BinaryEntropy(p) }

// BECCapacity returns 1 - p, the closed-form binary erasure capacity.
func BECCapacity(p float64) float64 { return 1 - p }

// ErasureCapacity returns the capacity n(1-p) in bits per use of an
// erasure channel over n-bit symbols, the paper's Theorem 1 bound.
func ErasureCapacity(n int, p float64) float64 { return float64(n) * (1 - p) }

// MSCCapacity returns the closed-form capacity of the M-ary symmetric
// channel: log2(m) - H(e) - e*log2(m-1).
func MSCCapacity(m int, e float64) float64 {
	c := math.Log2(float64(m)) - BinaryEntropy(e) - e*math.Log2(float64(m-1))
	if c < 0 {
		c = 0
	}
	return c
}

// ZChannelCapacity returns the closed-form Z-channel capacity
// log2(1 + (1-p) * p^(p/(1-p))).
func ZChannelCapacity(p float64) float64 {
	if p >= 1 {
		return 0
	}
	if p == 0 {
		return 1
	}
	return math.Log2(1 + (1-p)*math.Pow(p, p/(1-p)))
}
