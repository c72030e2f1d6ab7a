package infotheory

import (
	"fmt"
	"math"
	"sync"
)

// DMC is a discrete memoryless channel given by its transition matrix:
// W[x][y] = P(output y | input x). Rows must be probability
// distributions over a common output alphabet.
//
// A channel from NewDMC stores its matrix in one contiguous float64
// slab with w holding per-row views into it, so the Blahut–Arimoto
// reference loop (reference.go) streams over dense memory.
//
// The M-ary symmetric channel from MSC is implicit: w is nil, and the
// channel is its alphabet size, its diagonal cell diag and its
// off-diagonal cell off, so it takes O(m) memory where its matrix would
// take O(m²).
type DMC struct {
	nx, ny int // input and output alphabet sizes

	w [][]float64

	diag, off float64
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
	rows := make([][]float64, len(w))
	for x := range rows {
		rows[x] = flat[x*ny : x*ny+ny : x*ny+ny]
	}
	return &DMC{nx: len(w), ny: ny, w: rows}, nil
}

// NumInputs returns the input alphabet size.
func (c *DMC) NumInputs() int { return c.nx }

// NumOutputs returns the output alphabet size.
func (c *DMC) NumOutputs() int { return c.ny }

// Prob returns P(y | x).
func (c *DMC) Prob(x, y int) float64 {
	switch {
	case c.w != nil:
		return c.w[x][y]
	case x == y:
		return c.diag
	default:
		return c.off
	}
}

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
	nx, ny := c.NumInputs(), c.NumOutputs()
	py := make([]float64, ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			py[y] += px[x] * c.Prob(x, y)
		}
	}
	var mi float64
	for x := 0; x < nx; x++ {
		if px[x] == 0 {
			continue
		}
		for y := 0; y < ny; y++ {
			if p := c.Prob(x, y); p > 0 && py[y] > 0 {
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
// defaults to 10000. A dense channel runs CapacityReference; the
// implicit M-ary symmetric channel runs the kernels in ba.go, which
// match that loop on the dense twin to the last bit.
func (c *DMC) Capacity(tol float64, maxIter int) (CapacityResult, error) {
	if c.w != nil {
		return c.CapacityReference(tol, maxIter)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	m := c.nx
	px := make([]float64, m)
	for x := range px {
		px[x] = 1 / float64(m)
	}
	// d (per-input divergence D(W(.|x) || py)), py and the 2·m log
	// table are scratch: every iteration overwrites all of them, so a
	// pooled buffer from an earlier solve serves as it is.
	sp := baScratch.Get().(*[]float64)
	defer baScratch.Put(sp)
	if cap(*sp) < 4*m {
		*sp = make([]float64, 4*m)
	}
	buf := (*sp)[:4*m]
	d, py, logs := buf[:m:m], buf[m:2*m:2*m], buf[2*m:]

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
	res.Input = px
	return res, nil
}

// baScratch holds Capacity's per-solve scratch between solves, so a
// solve allocates only the input law it returns.
var baScratch = sync.Pool{New: func() any { return new([]float64) }}

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
// The channel is implicit (see DMC): its cells are diag = 1-e and
// off = e/(m-1). Its rows need no validateDist pass: for e in [0,1]
// every cell is non-negative and a row sums to 1 within about m·2⁻⁵³,
// far inside validateDist's 1e-9 for any m a caller can afford to solve.
func MSC(m int, e float64) (*DMC, error) {
	if m < 2 {
		return nil, fmt.Errorf("infotheory: MSC needs m >= 2, got %d", m)
	}
	if math.IsNaN(e) || e < 0 || e > 1 {
		return nil, fmt.Errorf("infotheory: MSC error rate %v out of [0,1]", e)
	}
	return &DMC{nx: m, ny: m, diag: 1 - e, off: e / float64(m-1)}, nil
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
