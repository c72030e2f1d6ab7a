package infotheory

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBinaryEntropyKnown(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0, 0},
		{1, 0},
		{0.5, 1},
		{0.25, 0.811278124459},
		{0.75, 0.811278124459},
		{0.11, 0.499915958165},
		{-0.3, 0}, // clamped
		{1.5, 0},  // clamped
	}
	for _, tt := range tests {
		if got := BinaryEntropy(tt.p); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("BinaryEntropy(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestBinaryEntropySymmetryAndBounds(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		p := float64(raw) / math.MaxUint16
		h := BinaryEntropy(p)
		return h >= 0 && h <= 1 && almostEqual(h, BinaryEntropy(1-p), 1e-12)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
