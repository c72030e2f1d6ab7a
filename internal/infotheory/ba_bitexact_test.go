package infotheory

import (
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

// TestCapacityMatchesReferenceBitExact checks the optimized BA kernel
// against the retained scalar reference on structured and random
// channels: capacity, gap, iteration count and the full input
// distribution must agree to the last bit.
func TestCapacityMatchesReferenceBitExact(t *testing.T) {
	var channels []*DMC
	mk := func(c *DMC, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		channels = append(channels, c)
	}
	mk(BSC(0.11))
	mk(BEC(0.3))
	mk(ZChannel(0.25))
	mk(MSC(64, 0.1))
	mk(MSC(16, 0.5))
	// Pi = 0 and the all-error channel have a zero value class, and
	// MSC(16, 15/16) has a single class: none takes the two-class fast
	// path.
	mk(MSC(64, 0))
	mk(MSC(64, 1))
	mk(MSC(16, 15.0/16))
	mk(MSC(256, 0))
	src := rng.New(7)
	for i := 0; i < 20; i++ {
		channels = append(channels, randomDMC(t, src, 2+src.Intn(9), 2+src.Intn(9), 0.3))
	}
	// A channel with more distinct values than maxValueClasses exercises
	// the fallback path.
	channels = append(channels, randomDMC(t, src, 12, 12, 0))

	for i, c := range channels {
		got, err := c.Capacity(1e-11, 500)
		if err != nil {
			t.Fatalf("channel %d: Capacity: %v", i, err)
		}
		want, err := c.CapacityReference(1e-11, 500)
		if err != nil {
			t.Fatalf("channel %d: CapacityReference: %v", i, err)
		}
		if got.Capacity != want.Capacity || got.Gap != want.Gap || got.Iterations != want.Iterations {
			t.Errorf("channel %d: optimized (C=%v gap=%v iters=%d) != reference (C=%v gap=%v iters=%d)",
				i, got.Capacity, got.Gap, got.Iterations, want.Capacity, want.Gap, want.Iterations)
		}
		for x := range got.Input {
			if got.Input[x] != want.Input[x] {
				t.Errorf("channel %d: input[%d] %v != %v", i, x, got.Input[x], want.Input[x])
			}
		}
	}
}

// TestTiltedInfoMatchesReferenceBitExact checks the cost-tilted BA
// kernel (the CapacityPerCost inner loop) against its scalar reference.
func TestTiltedInfoMatchesReferenceBitExact(t *testing.T) {
	src := rng.New(11)
	for i := 0; i < 15; i++ {
		nx := 2 + src.Intn(6)
		c := randomDMC(t, src, nx, 2+src.Intn(6), 0.25)
		costs := make([]float64, nx)
		for x := range costs {
			costs[x] = 0.5 + 2*src.Float64()
		}
		for _, lambda := range []float64{0, 0.1, 0.5, 1.3} {
			scratch := newTiltedScratch(c)
			gotV, gotQ := c.maxTiltedInfo(lambda, costs, scratch)
			wantV, wantQ := c.maxTiltedInfoReference(lambda, costs)
			if gotV != wantV {
				t.Errorf("case %d λ=%v: value %v != reference %v", i, lambda, gotV, wantV)
			}
			for x := range gotQ {
				if gotQ[x] != wantQ[x] {
					t.Errorf("case %d λ=%v: q[%d] %v != %v", i, lambda, x, gotQ[x], wantQ[x])
				}
			}
		}
	}
}

// TestScratchReuseIsStateless runs the same λ twice with a shared
// scratch and expects identical results: the scratch must carry no
// state between calls.
func TestScratchReuseIsStateless(t *testing.T) {
	c, err := MSC(8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{1, 2, 1, 3, 1, 2, 1, 4}
	scratch := newTiltedScratch(c)
	v1, q1 := c.maxTiltedInfo(0.3, costs, scratch)
	c.maxTiltedInfo(1.1, costs, scratch) // clobber
	v2, q2 := c.maxTiltedInfo(0.3, costs, scratch)
	if v1 != v2 {
		t.Errorf("scratch reuse changed value: %v != %v", v1, v2)
	}
	for x := range q1 {
		if q1[x] != q2[x] {
			t.Errorf("scratch reuse changed q[%d]: %v != %v", x, q1[x], q2[x])
		}
	}
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

// TestBuildClassesFallback checks the dictionary cap: a matrix with too
// many distinct values must drop to the per-cell fallback (nil classes)
// while structured channels keep a small dictionary.
func TestBuildClassesFallback(t *testing.T) {
	c, err := MSC(64, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if c.cls == nil || len(c.vals) != 2 {
		t.Errorf("MSC(64): want 2 value classes, got vals=%v cls-nil=%v", c.vals, c.cls == nil)
	}
	src := rng.New(5)
	big := randomDMC(t, src, 16, 16, 0)
	if big.cls != nil {
		t.Errorf("random 16x16 channel: want fallback (nil classes), got %d classes", len(big.vals))
	}
}

// TestMSCMatchesNewDMC checks MSC's in-place construction against
// NewDMC over the same rows: identical slab, value dictionary and class
// table, bit for bit. The error rates include e = 0 (a zero-valued
// class), e = (m-1)/m (the diagonal can equal the off-diagonal value, a
// one-class dictionary) and e = 1 (a zero diagonal).
func TestMSCMatchesNewDMC(t *testing.T) {
	var oneClass, zeroValue int
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
			sameBits := func(what string, a, b []float64) {
				t.Helper()
				if len(a) != len(b) {
					t.Fatalf("MSC(%d, %v) %s: %d entries, NewDMC %d", m, e, what, len(a), len(b))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("MSC(%d, %v) %s[%d] = %v, NewDMC %v", m, e, what, i, a[i], b[i])
					}
				}
			}
			sameBits("flat", got.flat, want.flat)
			sameBits("vals", got.vals, want.vals)
			if len(got.cls) != len(want.cls) {
				t.Fatalf("MSC(%d, %v): %d classes, NewDMC %d", m, e, len(got.cls), len(want.cls))
			}
			for i := range got.cls {
				if got.cls[i] != want.cls[i] {
					t.Fatalf("MSC(%d, %v) cls[%d] = %d, NewDMC %d", m, e, i, got.cls[i], want.cls[i])
				}
			}
			for x := 0; x < m; x++ {
				sameBits("row", got.w[x], want.w[x])
			}
			if len(want.vals) == 1 {
				oneClass++
			}
			for _, v := range want.vals {
				if v == 0 {
					zeroValue++
				}
			}
		}
	}
	if oneClass == 0 || zeroValue == 0 {
		t.Fatalf("sweep missed a dictionary shape: %d one-class, %d zero-valued", oneClass, zeroValue)
	}
}

// BenchmarkMSC times building the cold-grid's largest converted channel.
func BenchmarkMSC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MSC(256, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
