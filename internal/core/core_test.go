package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/infotheory"
	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestUpperBoundKnown(t *testing.T) {
	tests := []struct {
		p    channel.Params
		want float64
	}{
		{channel.Params{N: 1, Pd: 0}, 1},
		{channel.Params{N: 1, Pd: 0.3}, 0.7},
		{channel.Params{N: 8, Pd: 0.25}, 6},
		{channel.Params{N: 4, Pd: 1}, 0},
		{channel.Params{N: 4, Pd: 0.5, Pi: 0.2}, 2}, // Pi does not enter Theorem 1
	}
	for _, tt := range tests {
		got, err := UpperBound(tt.p)
		if err != nil {
			t.Fatalf("UpperBound(%+v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("UpperBound(%+v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestUpperBoundInvalid(t *testing.T) {
	if _, err := UpperBound(channel.Params{N: 0}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFeedbackDeletionCapacity(t *testing.T) {
	c, err := FeedbackDeletionCapacity(channel.Params{N: 2, Pd: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 1.5, 1e-12) {
		t.Fatalf("capacity = %v, want 1.5", c)
	}
	if _, err := FeedbackDeletionCapacity(channel.Params{N: 2, Pd: 0.1, Pi: 0.1}); err == nil {
		t.Fatal("Theorem 3 must reject insertion channels")
	}
}

func TestAlpha(t *testing.T) {
	tests := []struct {
		n    int
		want float64
	}{
		{1, 0.5},
		{2, 0.75},
		{4, 0.9375},
		{8, 1 - 1.0/256},
	}
	for _, tt := range tests {
		if got := Alpha(tt.n); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Alpha(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestConvertedCapacityNoInsertions(t *testing.T) {
	for n := 1; n <= 16; n++ {
		c, err := ConvertedCapacity(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(c, float64(n), 1e-12) {
			t.Errorf("Cconv(N=%d, Pi=0) = %v, want %d", n, c, n)
		}
	}
}

func TestConvertedCapacityBinary(t *testing.T) {
	// For N = 1 the formula reduces to 1 - H(Pi/2).
	pi := 0.3
	c, err := ConvertedCapacity(1, pi)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - infotheory.BinaryEntropy(pi/2)
	if !almostEqual(c, want, 1e-12) {
		t.Fatalf("Cconv(1, %v) = %v, want %v", pi, c, want)
	}
}

func TestConvertedCapacityErrors(t *testing.T) {
	if _, err := ConvertedCapacity(0, 0.1); err == nil {
		t.Error("expected width error")
	}
	if _, err := ConvertedCapacity(4, -0.1); err == nil {
		t.Error("expected probability error")
	}
	if _, err := ConvertedCapacity(4, 1.5); err == nil {
		t.Error("expected probability error")
	}
}

func TestConvertedCapacityMatchesBlahutArimoto(t *testing.T) {
	// E5 cross-check: the closed form must agree with the numerical
	// capacity of the explicit Figure 5 matrix.
	for _, n := range []int{1, 2, 4, 6} {
		for _, pi := range []float64{0, 0.05, 0.2, 0.5} {
			want, err := ConvertedCapacity(n, pi)
			if err != nil {
				t.Fatal(err)
			}
			dmc, err := ConvertedChannelDMC(n, pi)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dmc.Capacity(1e-12, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(res.Capacity, want, 1e-7) {
				t.Errorf("N=%d Pi=%v: BA=%v closed=%v", n, pi, res.Capacity, want)
			}
		}
	}
}

func TestConvertedChannelDMCErrors(t *testing.T) {
	if _, err := ConvertedChannelDMC(13, 0.1); err == nil {
		t.Error("expected width error")
	}
	if _, err := ConvertedChannelDMC(2, 2); err == nil {
		t.Error("expected probability error")
	}
}

func TestLargeNApproximationConverges(t *testing.T) {
	// Equation 5: the approximation error per symbol shrinks with N.
	pi := 0.1
	for _, n := range []int{8, 12, 16} {
		exact, err := ConvertedCapacity(n, pi)
		if err != nil {
			t.Fatal(err)
		}
		approx := ConvertedCapacityLargeN(n, pi)
		if math.Abs(exact-approx) > 0.15 {
			t.Errorf("N=%d: |exact-approx| = %v too large", n, math.Abs(exact-approx))
		}
	}
}

func TestLowerBoundsBelowUpperBound(t *testing.T) {
	// Property over the whole valid parameter space.
	err := quick.Check(func(nRaw, pdRaw, piRaw uint8) bool {
		n := int(nRaw%16) + 1
		pd := float64(pdRaw) / 255 * 0.5
		pi := float64(piRaw) / 255 * 0.4
		p := channel.Params{N: n, Pd: pd, Pi: pi}
		b, err := ComputeBounds(p)
		if err != nil {
			return false
		}
		return b.LowerT5 <= b.Upper+1e-9 &&
			b.LowerPerUse <= b.Upper+1e-9 &&
			b.LowerT5 >= 0 && b.LowerPerUse >= 0
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundDeletionOnlyMeetsUpper(t *testing.T) {
	// With Pi = 0 the counter protocol is the ARQ protocol and the
	// Theorem 5 bound collapses to the Theorem 3 capacity N(1-Pd).
	for _, pd := range []float64{0, 0.1, 0.4, 0.9} {
		p := channel.Params{N: 4, Pd: pd}
		lower, err := LowerBoundTheorem5(p)
		if err != nil {
			t.Fatal(err)
		}
		upper, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(lower, upper, 1e-12) {
			t.Errorf("Pd=%v: lower %v != upper %v", pd, lower, upper)
		}
	}
}

func TestLowerBoundPerUseDeletionOnlyMeetsUpper(t *testing.T) {
	p := channel.Params{N: 4, Pd: 0.3}
	lower, err := LowerBoundPerUse(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lower, 4*0.7, 1e-12) {
		t.Fatalf("per-use lower = %v, want 2.8", lower)
	}
}

func TestNormalizationsAgreeToFirstOrder(t *testing.T) {
	// Small Pd, Pi: both normalizations within a few percent.
	p := channel.Params{N: 8, Pd: 0.02, Pi: 0.02}
	a, err := LowerBoundTheorem5(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LowerBoundPerUse(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b)/a > 0.03 {
		t.Fatalf("normalizations diverge at small parameters: %v vs %v", a, b)
	}
}

func TestConvergenceRatioEquation7(t *testing.T) {
	// Equation 7: with Pi = Pd fixed, C_lower/C_upper -> 1 as N grows.
	pd := 0.1
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		r, err := ConvergenceRatio(n, pd)
		if err != nil {
			t.Fatal(err)
		}
		if r < prev-1e-12 {
			t.Fatalf("ratio not monotone at N=%d: %v < %v", n, r, prev)
		}
		prev = r
	}
	r16, err := ConvergenceRatio(16, pd)
	if err != nil {
		t.Fatal(err)
	}
	if r16 < 0.95 {
		t.Fatalf("ratio at N=16 is %v, expected near 1", r16)
	}
	// And it matches the analytic limit expression reasonably well:
	// ((1-Pd)N - H(Pd)) / (N(1-Pd)).
	limitExpr := (16*(1-pd) - infotheory.BinaryEntropy(pd)) / (16 * (1 - pd))
	if math.Abs(r16-limitExpr) > 0.02 {
		t.Fatalf("ratio %v far from equation 6 form %v", r16, limitExpr)
	}
}

func TestConvergenceRatioErrors(t *testing.T) {
	if _, err := ConvergenceRatio(4, 0.6); err == nil {
		t.Fatal("expected error for Pd=Pi=0.6 (sum > 1)")
	}
	if _, err := ConvergenceRatio(0, 0.1); err == nil {
		t.Fatal("expected width error")
	}
}

func TestDegrade(t *testing.T) {
	got, err := Degrade(100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got != 75 {
		t.Fatalf("Degrade(100, 0.25) = %v, want 75", got)
	}
	if _, err := Degrade(-1, 0.2); err == nil {
		t.Error("expected error for negative capacity")
	}
	if _, err := Degrade(1, 1.2); err == nil {
		t.Error("expected error for Pd > 1")
	}
}

func TestComputeBoundsInvalid(t *testing.T) {
	if _, err := ComputeBounds(channel.Params{N: 0}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEstimateFromTraceRecoverParameters(t *testing.T) {
	// End-to-end: simulate a channel, estimate parameters back, and
	// check the true values land inside the confidence intervals.
	// Event rates are kept small so the estimator's O(Pd*Pi)
	// deletion+insertion-vs-substitution merging bias is negligible.
	p := channel.Params{N: 16, Pd: 0.03, Pi: 0.02}
	ch, err := channel.NewDeletionInsertion(p, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(22)
	sent := make([]uint32, 5000)
	for i := range sent {
		sent[i] = src.Symbol(16)
	}
	received, _ := ch.Transmit(sent)
	est, err := EstimateFromTrace(sent, received, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pd < est.PdLo-0.01 || p.Pd > est.PdHi+0.01 {
		t.Errorf("true Pd %v outside CI [%v, %v]", p.Pd, est.PdLo, est.PdHi)
	}
	if p.Pi < est.PiLo-0.01 || p.Pi > est.PiHi+0.01 {
		t.Errorf("true Pi %v outside CI [%v, %v]", p.Pi, est.PiLo, est.PiHi)
	}
	b, err := est.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	trueUpper, err := UpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Upper-trueUpper) > 0.5 {
		t.Errorf("estimated upper bound %v far from true %v", b.Upper, trueUpper)
	}
}

func TestEstimateFromTraceErrors(t *testing.T) {
	if _, err := EstimateFromTrace([]uint32{1}, []uint32{1}, 0); err == nil {
		t.Error("expected width error")
	}
	if _, err := EstimateFromTrace([]uint32{4}, []uint32{1}, 2); err == nil {
		t.Error("expected alphabet error for sent")
	}
	if _, err := EstimateFromTrace([]uint32{1}, []uint32{4}, 2); err == nil {
		t.Error("expected alphabet error for received")
	}
}

func TestBoundsRatioField(t *testing.T) {
	b, err := ComputeBounds(channel.Params{N: 4, Pd: 0.1, Pi: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(b.Ratio, b.LowerT5/b.Upper, 1e-12) {
		t.Fatalf("Ratio = %v, want %v", b.Ratio, b.LowerT5/b.Upper)
	}
	bz, err := ComputeBounds(channel.Params{N: 4, Pd: 1, Pi: 0})
	if err != nil {
		t.Fatal(err)
	}
	if bz.Ratio != 0 {
		t.Fatalf("Ratio with zero upper = %v, want 0", bz.Ratio)
	}
}
