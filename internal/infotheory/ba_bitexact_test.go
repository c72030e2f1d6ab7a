package infotheory

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// randomDMC builds a random nx×ny channel with a controllable number of
// zero cells, normalized exactly (last entry absorbs the residual), so
// rows pass validateDist.
func randomDMC(t *testing.T, src *rng.Source, nx, ny int, zeroP float64) *DMC {
	t.Helper()
	w := make([][]float64, nx)
	for x := range w {
		row := make([]float64, ny)
		var sum float64
		for y := range row {
			if !src.Bool(zeroP) {
				row[y] = src.Float64() + 1e-3
			}
			sum += row[y]
		}
		if sum == 0 {
			row[src.Intn(ny)] = 1
			sum = 1
		}
		for y := range row {
			row[y] /= sum
		}
		// Re-normalize the largest entry so the row sums to 1 within
		// validateDist's tolerance even after division rounding.
		var resid float64 = 1
		for y := 0; y < ny-1; y++ {
			resid -= row[y]
		}
		if resid >= 0 {
			row[ny-1] = resid
		}
		w[x] = row
	}
	c, err := NewDMC(w)
	if err != nil {
		t.Fatalf("randomDMC: %v", err)
	}
	return c
}

// denseTwin returns NewDMC over the rows of the implicit MSC c: the
// dense matrix CapacityReference reads. Cell (x, y) of an M-ary
// symmetric channel depends only on y-x, so every row is a window of
// one band of 2m-1 Prob values and only NewDMC's copy takes O(m²)
// memory.
func denseTwin(t testing.TB, c *DMC) *DMC {
	t.Helper()
	m := c.NumInputs()
	band := make([]float64, 2*m-1) // band[m-1+k] = Prob(x, x+k)
	for j := range band {
		band[j] = c.Prob(max(m-1-j, 0), max(j-(m-1), 0))
	}
	w := make([][]float64, m)
	for x := range w {
		w[x] = band[m-1-x : 2*m-1-x]
	}
	twin, err := NewDMC(w)
	if err != nil {
		t.Fatalf("dense twin: %v", err)
	}
	return twin
}

// sameResult fails the test unless got and want agree to the last bit:
// capacity, gap, iteration count and the full input distribution.
func sameResult(t *testing.T, what string, got, want CapacityResult) {
	t.Helper()
	if math.Float64bits(got.Capacity) != math.Float64bits(want.Capacity) ||
		math.Float64bits(got.Gap) != math.Float64bits(want.Gap) || got.Iterations != want.Iterations {
		t.Fatalf("%s: kernel (C=%v gap=%v iters=%d) != reference (C=%v gap=%v iters=%d)",
			what, got.Capacity, got.Gap, got.Iterations, want.Capacity, want.Gap, want.Iterations)
	}
	if len(got.Input) != len(want.Input) {
		t.Fatalf("%s: input has %d entries, reference %d", what, len(got.Input), len(want.Input))
	}
	for x := range got.Input {
		if math.Float64bits(got.Input[x]) != math.Float64bits(want.Input[x]) {
			t.Fatalf("%s: input[%d] %v != reference %v", what, x, got.Input[x], want.Input[x])
		}
	}
}

// baRun is one Blahut–Arimoto solver setting.
type baRun struct {
	tol     float64
	maxIter int
}

// checkMSCBitExact solves the implicit MSC(m, e) with Capacity and its
// dense twin with CapacityReference under each setting and requires
// bit-identical results.
func checkMSCBitExact(t *testing.T, m int, e float64, runs ...baRun) {
	t.Helper()
	c, err := MSC(m, e)
	if err != nil {
		t.Fatal(err)
	}
	twin := denseTwin(t, c)
	for _, r := range runs {
		got, err := c.Capacity(r.tol, r.maxIter)
		if err != nil {
			t.Fatalf("MSC(%d, %v): Capacity: %v", m, e, err)
		}
		want, err := twin.CapacityReference(r.tol, r.maxIter)
		if err != nil {
			t.Fatalf("MSC(%d, %v): CapacityReference: %v", m, e, err)
		}
		sameResult(t, fmt.Sprintf("MSC(%d, %v) tol %v maxIter %d", m, e, r.tol, r.maxIter), got, want)
	}
}

// mscSizes and mscErrorRates are the converted-channel sweep: every
// alphabet size up to 70 (so every remainder of the kernels' four-way
// blocking), the sizes either side of 128 and 256, and 512 and 1024;
// error rates from a zero off-diagonal cell (e = 0) through
// diag == off (e = (m-1)/m) to a zero diagonal (e = 1).
func mscSizes() []int {
	var sizes []int
	for m := 2; m <= 70; m++ {
		sizes = append(sizes, m)
	}
	return append(sizes, 127, 128, 129, 255, 256, 257, 512, 1024)
}

func mscErrorRates(m int) []float64 {
	return []float64{0, 1e-9, 0.0123, 0.09375, 0.3, 0.5, 0.99, float64(m-1) / float64(m), 1}
}

// TestCapacityMatchesReferenceBitExact checks the implicit M-ary
// symmetric kernels against the scalar reference on the channel's dense
// twin. Capacity, gap, iteration count and the full input distribution
// must agree to the last bit. Each converted-channel case runs at the
// service's default setting and again at tol 1e-300 with 5 iterations,
// so the kernels also see a non-uniform input distribution.
func TestCapacityMatchesReferenceBitExact(t *testing.T) {
	// Pi = 0 and the all-error channel have a zero cell, and
	// MSC(16, 15/16) has diag == off.
	for _, tc := range []struct {
		m int
		e float64
	}{{64, 0.1}, {16, 0.5}, {64, 0}, {64, 1}, {16, 15.0 / 16}, {256, 0}} {
		checkMSCBitExact(t, tc.m, tc.e, baRun{1e-11, 500})
	}
	for _, m := range mscSizes() {
		for _, e := range mscErrorRates(m) {
			checkMSCBitExact(t, m, e, baRun{1e-9, 2000}, baRun{1e-300, 5})
		}
	}
	// n = 12, the largest converted channel the service solves, once.
	checkMSCBitExact(t, 4096, 0.3, baRun{1e-300, 2})
}

// TestNonNegativeInvariants is the property test for the shared clamp:
// mutual information, capacity and the BA gap are never negative for
// any valid channel and input distribution.
func TestNonNegativeInvariants(t *testing.T) {
	src := rng.New(23)
	for i := 0; i < 60; i++ {
		nx := 2 + src.Intn(7)
		c := randomDMC(t, src, nx, 2+src.Intn(7), 0.4)
		px := make([]float64, nx)
		var sum float64
		for x := range px {
			px[x] = src.Float64()
			sum += px[x]
		}
		for x := range px {
			px[x] /= sum
		}
		var resid float64 = 1
		for x := 0; x < nx-1; x++ {
			resid -= px[x]
		}
		if resid >= 0 {
			px[nx-1] = resid
		}
		mi, err := c.MutualInformation(px)
		if err != nil {
			t.Fatalf("case %d: MutualInformation: %v", i, err)
		}
		if mi < 0 || math.IsNaN(mi) {
			t.Errorf("case %d: MI = %v, want >= 0", i, mi)
		}
		res, err := c.Capacity(1e-9, 50) // few iterations: gap jitter most likely mid-run
		if err != nil {
			t.Fatalf("case %d: Capacity: %v", i, err)
		}
		if res.Capacity < 0 {
			t.Errorf("case %d: capacity = %v, want >= 0", i, res.Capacity)
		}
		if res.Gap < 0 {
			t.Errorf("case %d: gap = %v, want >= 0", i, res.Gap)
		}
	}
}

// TestNonNegativeHelper pins the clamp semantics, including NaN
// passthrough.
func TestNonNegativeHelper(t *testing.T) {
	if got := nonNegative(-1e-17); got != 0 {
		t.Errorf("nonNegative(-1e-17) = %v, want 0", got)
	}
	if got := nonNegative(0.5); got != 0.5 {
		t.Errorf("nonNegative(0.5) = %v, want 0.5", got)
	}
	if got := nonNegative(0); got != 0 {
		t.Errorf("nonNegative(0) = %v, want 0", got)
	}
	if got := nonNegative(math.NaN()); !math.IsNaN(got) {
		t.Errorf("nonNegative(NaN) = %v, want NaN", got)
	}
}

// TestMSCMatchesNewDMC checks the implicit MSC's cells against NewDMC
// over the M-ary symmetric rows, bit for bit. The error rates include
// e = 0 (zero off-diagonal cells), e = (m-1)/m (diag can equal off) and
// e = 1 (a zero diagonal).
func TestMSCMatchesNewDMC(t *testing.T) {
	for _, m := range []int{2, 3, 16, 256} {
		for _, e := range []float64{0, 0.0123, 0.5, float64(m-1) / float64(m), 1} {
			got, err := MSC(m, e)
			if err != nil {
				t.Fatal(err)
			}
			w := make([][]float64, m)
			for x := range w {
				w[x] = make([]float64, m)
				for y := range w[x] {
					if x == y {
						w[x][y] = 1 - e
					} else {
						w[x][y] = e / float64(m-1)
					}
				}
			}
			want, err := NewDMC(w)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumInputs() != m || got.NumOutputs() != m {
				t.Fatalf("MSC(%d, %v) is %d×%d", m, e, got.NumInputs(), got.NumOutputs())
			}
			for x := 0; x < m; x++ {
				for y := 0; y < m; y++ {
					if math.Float64bits(got.Prob(x, y)) != math.Float64bits(want.Prob(x, y)) {
						t.Fatalf("MSC(%d, %v).Prob(%d, %d) = %v, NewDMC %v", m, e, x, y, got.Prob(x, y), want.Prob(x, y))
					}
				}
			}
		}
	}
}
