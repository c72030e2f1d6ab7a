package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestProportion(t *testing.T) {
	p := Proportion{K: 50, N: 100}
	if p.Estimate() != 0.5 {
		t.Fatalf("Estimate = %v", p.Estimate())
	}
	lo, hi := p.Wilson95()
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("Wilson interval [%v, %v] should bracket 0.5", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Fatalf("Wilson interval [%v, %v] implausibly wide", lo, hi)
	}
}

func TestProportionEdges(t *testing.T) {
	lo, hi := Proportion{K: 0, N: 20}.Wilson95()
	if lo != 0 || hi <= 0 || hi >= 0.3 {
		t.Fatalf("Wilson for 0/20 = [%v, %v]", lo, hi)
	}
	lo, hi = Proportion{K: 20, N: 20}.Wilson95()
	if hi != 1 || lo <= 0.7 {
		t.Fatalf("Wilson for 20/20 = [%v, %v]", lo, hi)
	}
	lo, hi = Proportion{}.Wilson95()
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson for 0/0 = [%v, %v], want [0, 1]", lo, hi)
	}
}

func TestAutoCorrelationValidation(t *testing.T) {
	if _, err := AutoCorrelation([]float64{1, 2, 3}, 0); err == nil {
		t.Error("expected lag error")
	}
	if _, err := AutoCorrelation([]float64{1, 2}, 1); err == nil {
		t.Error("expected short series error")
	}
}

func TestAutoCorrelationAlternating(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if m := Mean(xs); m != 0.5 {
		t.Fatalf("Mean of alternating 0/1 series = %v, want 0.5", m)
	}
	r1, err := AutoCorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 > -0.9 {
		t.Fatalf("lag-1 ACF of alternating series = %v, want near -1", r1)
	}
	r2, err := AutoCorrelation(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Fatalf("lag-2 ACF of alternating series = %v, want near +1", r2)
	}
}

func TestAutoCorrelationConstantSeries(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	r, err := AutoCorrelation(xs, 1)
	if err != nil || r != 0 {
		t.Fatalf("constant series ACF = %v, %v; want 0, nil", r, err)
	}
}

func TestAutoCorrelationPersistentSeries(t *testing.T) {
	// Long runs of equal values: strong positive lag-1 correlation.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64((i / 20) % 2)
	}
	r, err := AutoCorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.8 {
		t.Fatalf("run-structured series lag-1 ACF = %v, want > 0.8", r)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.9, -3, 42} {
		h.Add(x)
	}
	counts := h.Counts()
	want := []int{3, 1, 1, 0, 2} // -3 clamps to bin 0, 42 to bin 4
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", counts, want)
		}
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := NewHistogram(1, 1, 3); err == nil {
		t.Error("expected error for empty range")
	}
}

func TestHistogramCountsIsCopy(t *testing.T) {
	h, err := NewHistogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.1)
	c := h.Counts()
	c[0] = 99
	if h.Counts()[0] != 1 {
		t.Fatal("Counts exposed internal state")
	}
}
