// Package infotheory implements the information-theoretic machinery the
// paper's capacity estimates are built on: the binary entropy function,
// discrete memoryless channels (DMCs) with a general Blahut–Arimoto
// capacity solver, closed-form capacities for the standard channels the paper
// references (binary symmetric, binary erasure, M-ary symmetric,
// Z-channel), Shannon's capacity for noiseless channels with unequal
// symbol durations (the basis of Millen's finite-state covert channel
// capacity [5] and Moskowitz's Simple Timing Channels [10]), and the
// finite-state-machine capacity itself.
package infotheory

import (
	"fmt"
	"math"
)

// BinaryEntropy returns H(p) = -p log2 p - (1-p) log2 (1-p) in bits,
// with the standard convention H(0) = H(1) = 0. Inputs outside [0, 1]
// are clamped.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// validateDist checks non-negativity and normalization.
func validateDist(p []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("infotheory: empty distribution")
	}
	var sum float64
	for i, pi := range p {
		if pi < 0 || math.IsNaN(pi) {
			return fmt.Errorf("infotheory: distribution entry %d is %v", i, pi)
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("infotheory: distribution sums to %v, want 1", sum)
	}
	return nil
}
