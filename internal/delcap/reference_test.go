package delcap

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/rng"
)

// TestEmbeddingCountMatchesReference compares the kernel with the full
// reference program: exhaustively over every (x, y, m) for n <= 10,
// including m > n and outputs that are not subsequences of x, and over
// every (x, y) with four and five deletions at n = 11 and 12, the most
// the ten-bit lanes hold; then on random pairs up to n = 20. The random
// pairs reach both of the kernel's programs: keeping a random subset of
// x's bits mostly deletes more than the lanes hold, while deleting few
// bits of x, or drawing any y (its bits above m random too) a few bits
// shorter than x, takes the lane program.
func TestEmbeddingCountMatchesReference(t *testing.T) {
	check := func(x uint32, n int, y uint32, m int) int64 {
		t.Helper()
		got, err := EmbeddingCount(x, n, y, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := embeddingCountReference(x, n, y, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("EmbeddingCount(%b, %d, %b, %d) = %d, reference %d", x, n, y, m, got, want)
		}
		return got
	}
	var zeros, positive int
	for n := 0; n <= 10; n++ {
		for x := uint32(0); x < 1<<uint(n); x++ {
			for m := 0; m <= n+1; m++ {
				for y := uint32(0); y < 1<<uint(m); y++ {
					if check(x, n, y, m) == 0 {
						zeros++
					} else {
						positive++
					}
				}
			}
		}
	}
	for n := 11; n <= 12; n++ {
		for x := uint32(0); x < 1<<uint(n); x++ {
			for m := n - 5; m <= n-4; m++ {
				for y := uint32(0); y < 1<<uint(m); y++ {
					check(x, n, y, m)
				}
			}
		}
	}
	if zeros == 0 || positive == 0 {
		t.Fatalf("exhaustive sweep is one-sided: %d zero and %d positive counts", zeros, positive)
	}
	// The largest count a ten-bit lane holds: seven zeros in twelve.
	if got := check(0, 12, 0, 7); got != 792 {
		t.Fatalf("EmbeddingCount(0, 12, 0, 7) = %d, want C(12, 5) = 792", got)
	}

	gen := rng.New(20)
	for k := 0; k < 20000; k++ {
		n := 11 + gen.Intn(10)
		x := gen.Symbol(n)
		m := gen.Intn(21)
		var y uint32
		if m > 0 {
			y = gen.Symbol(m)
		}
		if k%2 == 0 && m <= n {
			// Keep a random subset of x's bits, so the count is positive.
			y, m = 0, 0
			for i := 0; i < n; i++ {
				if gen.Bit() == 1 {
					y |= (x >> uint(i) & 1) << uint(m)
					m++
				}
			}
		}
		check(x, n, y, m)
	}
	for k := 0; k < 20000; k++ {
		n := 11 + gen.Intn(10)
		x := gen.Symbol(n)
		m := n - gen.Intn(4)
		y := gen.Symbol(32)
		if k%2 == 0 {
			// Delete n-m distinct bits of x, so the count is positive.
			var drop uint32
			for bits.OnesCount32(drop) < n-m {
				drop |= 1 << uint(gen.Intn(n))
			}
			y = 0
			for i, j := 0, 0; i < n; i++ {
				if drop>>uint(i)&1 == 0 {
					y |= (x >> uint(i) & 1) << uint(j)
					j++
				}
			}
		}
		check(x, n, y, m)
	}
	// Up to five deletions at n <= 12, and four at n = 13, the first
	// length that keeps the four sixteen-bit lanes.
	for k := 0; k < 20000; k++ {
		n := 5 + gen.Intn(9)
		m := n - 4 - gen.Intn(2)
		x := gen.Symbol(n)
		y := gen.Symbol(32)
		if k%2 == 0 {
			// Delete n-m distinct bits of x, so the count is positive.
			var drop uint32
			for bits.OnesCount32(drop) < n-m {
				drop |= 1 << uint(gen.Intn(n))
			}
			y = 0
			for i, j := 0, 0; i < n; i++ {
				if drop>>uint(i)&1 == 0 {
					y |= (x >> uint(i) & 1) << uint(j)
					j++
				}
			}
		}
		check(x, n, y, m)
	}
}

// TestExactUniformRateMatchesReference compares exact float bits of the
// enumeration over the kernel with the reference enumeration.
func TestExactUniformRateMatchesReference(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, pd := range []float64{0, 0.05, 0.2, 0.5, 0.93, 1} {
			got, err := ExactUniformRate(n, pd)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exactUniformRateReference(n, pd)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d pd=%v: %v, reference %v", n, pd, got, want)
			}
		}
	}
}

// TestMonteCarloMatchesReferenceBitExact compares exact float bits of
// the estimate and the source's next Uint64 after the call, so the
// kernel can neither change a value nor consume a different number of
// draws. The probabilities include both ends, where rng.Bool draws
// nothing, and the smallest and largest that draw.
func TestMonteCarloMatchesReferenceBitExact(t *testing.T) {
	type tc struct {
		n       int
		pd      float64
		samples int
		seed    uint64
	}
	var cases []tc
	gen := rng.New(13)
	for k := 0; k < 600; k++ {
		pd := []float64{0, 1.0 / (1 << 53), gen.Float64(), 1 - 1.0/(1<<53), 1}[k%5]
		cases = append(cases, tc{n: 1 + gen.Intn(20), pd: pd, samples: 1 + gen.Intn(300), seed: gen.Uint64()})
	}
	// pd equal to the first bit draw's own value (the input word takes
	// one draw), so keeping or deleting that bit rests on the
	// comparison's strictness: Float64() < pd is false there.
	for seed := uint64(1); seed <= 8; seed++ {
		peek := rng.New(seed)
		peek.Uint64()
		cases = append(cases, tc{n: 12, pd: float64(peek.Uint64()>>11) / (1 << 53), samples: 3, seed: seed})
	}
	// The cold-grid shape: n = 12, 2000 samples, pd in [0.02, 0.22].
	for k := 0; k < 8; k++ {
		cases = append(cases, tc{n: 12, pd: 0.02 + 0.2*gen.Float64(), samples: 2000, seed: uint64(k + 1)})
	}
	// n = 20 at low pd, where nearly every count takes the lane program,
	// and at pd 0.5, where most counts exceed the log table and take the
	// direct math.Log2 path.
	for k, pd := range []float64{0.01, 0.03, 0.06, 0.5} {
		cases = append(cases, tc{n: 20, pd: pd, samples: 1000, seed: uint64(k + 9)})
	}
	// n = 12 where four and five deletions are common, the most the
	// ten-bit lanes hold, and n = 13, the first length on sixteen-bit
	// lanes.
	for k, pd := range []float64{0.3, 0.45} {
		cases = append(cases, tc{n: 12, pd: pd, samples: 2000, seed: uint64(k + 13)})
		cases = append(cases, tc{n: 13, pd: pd / 2, samples: 2000, seed: uint64(k + 15)})
	}
	for _, c := range cases {
		src, ref := rng.New(c.seed), rng.New(c.seed)
		got, err := MonteCarloUniformRate(c.n, c.pd, c.samples, src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := monteCarloUniformRateReference(c.n, c.pd, c.samples, ref)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: estimate %v, reference %v", c, got, want)
		}
		if a, b := src.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("%+v: RNG diverged after the call", c)
		}
	}
}

// TestMonteCarloZeroAlloc pins the estimator's cost contract: a call
// at the cold-grid shape allocates nothing.
func TestMonteCarloZeroAlloc(t *testing.T) {
	src := rng.New(1)
	for _, pd := range []float64{0, 0.1, 0.5} {
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			_, err = MonteCarloUniformRate(12, pd, 2000, src)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("pd=%v: %.1f allocations per call, want 0", pd, allocs)
		}
	}
}

var rateSink float64

// drawFloor replays the reference's random draws alone — one input word
// and one rng.Bool coin per bit, per sample — as the service benchmark's
// delcap.mc_floor_ratio does.
func drawFloor(n int, pd float64, samples int, src *rng.Source) (float64, error) {
	var sink uint64
	for s := 0; s < samples; s++ {
		sink += src.Uint64n(1 << uint(n))
		for i := 0; i < n; i++ {
			if src.Bool(pd) {
				sink++
			}
		}
	}
	return float64(sink), nil
}

// maskFloor replays the kernel's random draws alone — one input word
// and one deletion mask per sample — as the floor the kernel can reach.
func maskFloor(n int, pd float64, samples int, src *rng.Source) (float64, error) {
	var sink uint64
	thr := rng.ProbThreshold(pd)
	for s := 0; s < samples; s++ {
		sink += src.Uint64n(1 << uint(n))
		sink += src.BoolMask(n, thr)
	}
	return float64(sink), nil
}

// BenchmarkMonteCarlo times the cold-grid Monte-Carlo shape through the
// kernel, the reference and two draw floors, at the low, middle and
// high end of cold-grid's pd range: the kernel's count takes its banded
// program for samples with more than five deletions, and the share of
// those grows with pd. floor draws one rng.Bool per bit, as the
// service benchmark's delcap.mc_floor_ratio does; maskfloor draws what
// the kernel draws, one mask per sample.
func BenchmarkMonteCarlo(b *testing.B) {
	for _, bc := range []struct {
		name string
		fn   func(int, float64, int, *rng.Source) (float64, error)
	}{
		{"kernel", MonteCarloUniformRate}, {"reference", monteCarloUniformRateReference},
		{"floor", drawFloor}, {"maskfloor", maskFloor},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for _, pd := range []float64{0.02, 0.12, 0.22} {
				b.Run(fmt.Sprintf("pd=%v", pd), func(b *testing.B) {
					src := rng.New(1)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rateSink, _ = bc.fn(12, pd, 2000, src)
					}
				})
			}
		})
	}
}
