package delcap

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEmbeddingCountKnown(t *testing.T) {
	tests := []struct {
		name string
		x    uint32
		n    int
		y    uint32
		m    int
		want int64
	}{
		{name: "empty in empty", want: 1},
		{name: "empty in anything", x: 0b101, n: 3, want: 1},
		{name: "identity", x: 0b101, n: 3, y: 0b101, m: 3, want: 1},
		{name: "longer y", x: 0b1, n: 1, y: 0b11, m: 2, want: 0},
		{name: "single bit in 111", x: 0b111, n: 3, y: 0b1, m: 1, want: 3},
		{name: "0 in 111", x: 0b111, n: 3, y: 0, m: 1, want: 0},
		{name: "11 in 111", x: 0b111, n: 3, y: 0b11, m: 2, want: 3},
		{name: "01 in 0101", x: 0b0101, n: 4, y: 0b01, m: 2, want: 3},
		{name: "mismatch", x: 0b0000, n: 4, y: 0b1, m: 1, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := EmbeddingCount(tt.x, tt.n, tt.y, tt.m)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("EmbeddingCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEmbeddingCountErrors(t *testing.T) {
	if _, err := EmbeddingCount(0, 21, 0, 1); err == nil {
		t.Error("expected length error")
	}
	if _, err := EmbeddingCount(0, 1, 0, -1); err == nil {
		t.Error("expected length error")
	}
	if _, err := EmbeddingCount(0, 20, 0, 21); err == nil {
		t.Error("expected length error")
	}
}

func TestEmbeddingCountTotalMass(t *testing.T) {
	// Property: over all outputs y, sum of P(y|x) must be 1 for any x.
	const n = 8
	for _, pd := range []float64{0.1, 0.37, 0.8} {
		for x := uint32(0); x < 1<<n; x += 17 {
			var total float64
			for m := 0; m <= n; m++ {
				for y := uint32(0); y < 1<<uint(m); y++ {
					p, err := transitionProb(x, n, y, int(m), pd)
					if err != nil {
						t.Fatal(err)
					}
					total += p
				}
			}
			if !almostEqual(total, 1, 1e-9) {
				t.Fatalf("pd=%v x=%b: transition mass %v != 1", pd, x, total)
			}
		}
	}
}

func TestExactUniformRateEdges(t *testing.T) {
	// pd = 0: noiseless, rate = 1 bit per bit.
	r, err := ExactUniformRate(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-9) {
		t.Fatalf("rate at pd=0 is %v, want 1", r)
	}
	// pd = 1: nothing arrives.
	r, err = ExactUniformRate(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("rate at pd=1 is %v, want 0", r)
	}
}

func TestExactUniformRateErrors(t *testing.T) {
	if _, err := ExactUniformRate(0, 0.1); err == nil {
		t.Error("expected blocklength error")
	}
	if _, err := ExactUniformRate(13, 0.1); err == nil {
		t.Error("expected blocklength error")
	}
	if _, err := ExactUniformRate(4, -0.1); err == nil {
		t.Error("expected probability error")
	}
}

func TestExactUniformRateBelowErasureBound(t *testing.T) {
	for _, pd := range []float64{0.05, 0.1, 0.2, 0.5} {
		for _, n := range []int{4, 8} {
			r, err := ExactUniformRate(n, pd)
			if err != nil {
				t.Fatal(err)
			}
			if r > core.DeletionUpperBoundTrivial(pd)+1e-9 {
				t.Errorf("n=%d pd=%v: rate %v exceeds erasure bound %v", n, pd, r, core.DeletionUpperBoundTrivial(pd))
			}
			if r <= 0 {
				t.Errorf("n=%d pd=%v: rate %v should be positive", n, pd, r)
			}
		}
	}
}

func TestExactUniformRateDecreasesWithBlocklength(t *testing.T) {
	// Known block boundaries act as synchronization markers, so the
	// per-bit rate decreases with n toward the boundary-free i.u.d.
	// information rate.
	const pd = 0.2
	prev := math.Inf(1)
	for _, n := range []int{2, 4, 6, 8, 10} {
		r, err := ExactUniformRate(n, pd)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev+1e-9 {
			t.Fatalf("rate increased at n=%d: %v > %v", n, r, prev)
		}
		prev = r
	}
}

func TestExactUniformRateN1IsErasure(t *testing.T) {
	// A single bit per block: the receiver sees either the bit or an
	// empty block, which is exactly a binary erasure channel.
	for _, pd := range []float64{0.1, 0.3, 0.7} {
		r, err := ExactUniformRate(1, pd)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, 1-pd, 1e-9) {
			t.Fatalf("pd=%v: n=1 rate %v, want erasure rate %v", pd, r, 1-pd)
		}
	}
}

func TestBoundsOrdering(t *testing.T) {
	err := quick.Check(func(raw uint8) bool {
		pd := float64(raw) / 255 * 0.49
		lo := GallagerLowerBound(pd)
		return lo >= 0 && lo <= core.DeletionUpperBoundTrivial(pd)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range []float64{0.5, 0.6} {
		if GallagerLowerBound(pd) != 0 {
			t.Errorf("Gallager bound at pd=%v should clamp to 0 (pd >= 0.5)", pd)
		}
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	const (
		n  = 8
		pd = 0.15
	)
	exact, err := ExactUniformRate(n, pd)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloUniformRate(n, pd, 5000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-exact) > 0.05 {
		t.Fatalf("Monte Carlo %v vs exact %v", mc, exact)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarloUniformRate(0, 0.1, 10, rng.New(1)); err == nil {
		t.Error("expected blocklength error")
	}
	if _, err := MonteCarloUniformRate(4, 1.5, 10, rng.New(1)); err == nil {
		t.Error("expected probability error")
	}
	if _, err := MonteCarloUniformRate(4, 0.1, 0, rng.New(1)); err == nil {
		t.Error("expected sample size error")
	}
	if _, err := MonteCarloUniformRate(4, 0.1, 10, nil); err == nil {
		t.Error("expected nil source error")
	}
}

func TestMonteCarloLargeBlocklength(t *testing.T) {
	// n = 16 is out of reach for enumeration; the estimate must land
	// between plausible bounds.
	const pd = 0.1
	mc, err := MonteCarloUniformRate(16, pd, 3000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if mc <= 0.4 || mc > core.DeletionUpperBoundTrivial(pd)+0.05 {
		t.Fatalf("n=16 estimate %v outside plausible range (0.4, %v]", mc, core.DeletionUpperBoundTrivial(pd))
	}
}

func TestMonteCarloFullDeletion(t *testing.T) {
	mc, err := MonteCarloUniformRate(8, 1, 100, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if mc != 0 {
		t.Fatalf("rate at pd=1 is %v, want 0", mc)
	}
}
