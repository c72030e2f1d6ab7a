package rng

import (
	"math"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverged at step %d: %d != %d", i, got, want)
		}
	}
}

// TestUint64KnownAnswers pins the stream itself: every seeded
// simulation, digest and benchmark workload in the repository rests on
// these words, so a rewrite of the step must reproduce them exactly.
func TestUint64KnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{42, [4]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}},
	} {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Errorf("New(%d): output %d is %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

// TestUint64Inlines builds the package with -gcflags=-m and requires gc
// to report the step inlinable: hot loops (Uint64n, which the
// Monte-Carlo deletion rate calls once per sample, and every Bool and
// Float64 caller) depend on drawing without a call, and an edit that
// pushes the step over the inlining budget costs them silently
// otherwise.
func TestUint64Inlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline (*Source).Uint64\n") {
		t.Fatalf("gc does not inline (*Source).Uint64; -gcflags=-m=2 gives the cost. Compiler output:\n%s", out)
	}
}

// TestBoolMaskMatchesUint64 is BoolMask's known-answer test: on two
// seeds, for each width and threshold, the mask must equal n successive
// Uint64()>>11 < thr comparisons and leave the source where those n
// calls leave it. The thresholds cover both ends (no bit, every bit),
// the smallest and largest that split the draws, and one in between.
func TestBoolMaskMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, n := range []int{0, 1, 12, 20, 64} {
			for _, thr := range []uint64{0, 1, ProbThreshold(0.12), 1<<53 - 1, 1 << 53} {
				src, ref := New(seed), New(seed)
				got := src.BoolMask(n, thr)
				var want uint64
				for i := 0; i < n; i++ {
					if ref.Uint64()>>11 < thr {
						want |= 1 << uint(i)
					}
				}
				if got != want {
					t.Fatalf("seed %d: BoolMask(%d, %d) = %#x, want %#x", seed, n, thr, got, want)
				}
				if a, b := src.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d: BoolMask(%d, %d) left the source elsewhere", seed, n, thr)
				}
			}
		}
	}
	// Bit i is Bool(p) on the same draw.
	src, ref := New(7), New(7)
	for k := 0; k < 100; k++ {
		mask := src.BoolMask(12, ProbThreshold(0.12))
		for i := 0; i < 12; i++ {
			if got, want := mask>>uint(i)&1 == 1, ref.Bool(0.12); got != want {
				t.Fatalf("mask %d bit %d: %v, Bool %v", k, i, got, want)
			}
		}
	}
}

func TestBoolMaskPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BoolMask(%d, 1) did not panic", n)
				}
			}()
			New(1).BoolMask(n, 1)
		}()
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	var all uint64
	for i := 0; i < 64; i++ {
		all |= r.Uint64()
	}
	if all == 0 {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d deviates from expected %.0f", v, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 0},
		{p: 1, want: 1},
		{p: -0.5, want: 0},
		{p: 1.5, want: 1},
		{p: 0.25, want: 0.25},
		{p: 0.9, want: 0.9},
	}
	for _, tt := range tests {
		r := New(99)
		const trials = 100000
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bool(tt.p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-tt.want) > 0.01 {
			t.Errorf("Bool(%v) frequency = %v, want ~%v", tt.p, got, tt.want)
		}
	}
}

// TestProbThreshold pins the exact integer-threshold equivalence on
// boundary values.
func TestProbThreshold(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0, 0},
		{-1, 0},
		{1, 1 << 53},
		{2, 1 << 53},
		{0.5, 1 << 52},
		{1.0 / (1 << 53), 1}, // smallest draw-distinguishable probability
	}
	for _, tc := range cases {
		if got := ProbThreshold(tc.p); got != tc.want {
			t.Errorf("ProbThreshold(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestProbThresholdMatchesBool checks the integer compare against Bool
// on the same draw, for probabilities equal to the draw's value and one
// ulp either side of it, where Float64() < p is decided by the last bit.
func TestProbThresholdMatchesBool(t *testing.T) {
	gen := New(53)
	for i := uint64(0); i < 5000; i++ {
		v := float64(New(i).Uint64()>>11) / (1 << 53)
		for _, p := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, 1), gen.Float64()} {
			if p <= 0 || p >= 1 {
				continue
			}
			got := New(i).Uint64()>>11 < ProbThreshold(p)
			if want := New(i).Bool(p); got != want {
				t.Fatalf("seed %d p=%v: threshold compare %v, Bool %v", i, p, got, want)
			}
		}
	}
}

func TestBitBalance(t *testing.T) {
	r := New(13)
	const trials = 100000
	ones := 0
	for i := 0; i < trials; i++ {
		b := r.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	if math.Abs(float64(ones)/trials-0.5) > 0.01 {
		t.Fatalf("Bit frequency of ones = %v, want ~0.5", float64(ones)/trials)
	}
}

func TestSymbolRange(t *testing.T) {
	r := New(17)
	for n := 1; n <= 32; n++ {
		for i := 0; i < 1000; i++ {
			s := r.Symbol(n)
			if n < 32 && s >= uint32(1)<<uint(n) {
				t.Fatalf("Symbol(%d) = %d out of range", n, s)
			}
		}
	}
}

func TestSymbolPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, 33, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Symbol(%d) did not panic", n)
				}
			}()
			New(1).Symbol(n)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(31)
	child := r.Split()
	// The child stream must not be a shifted copy of the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams share %d of 100 values", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(43)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestNormFloat64TailMass(t *testing.T) {
	r := New(47)
	const n = 100000
	beyond2 := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.NormFloat64()) > 2 {
			beyond2++
		}
	}
	// P(|Z| > 2) ~ 4.55%.
	frac := float64(beyond2) / n
	if frac < 0.035 || frac > 0.057 {
		t.Fatalf("two-sigma tail mass = %v, want ~0.0455", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
