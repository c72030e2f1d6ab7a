package delcap

import (
	"math"

	"repro/internal/rng"
)

// This file retains the pre-optimization scalar loops of the embedding
// count and both rate estimators. They are the ground truth the kernels
// in delcap.go are measured against: differential tests assert
// bit-identical results and, for the Monte-Carlo estimator, identical
// RNG stream positions afterwards. Keep them dumb — their value is being
// obviously equivalent to the textbook dynamic program and estimator.

// embeddingCountReference runs the full embedding-count dynamic program
// over every prefix length of y, with a heap-allocated table.
func embeddingCountReference(x uint32, n int, y uint32, m int) (int64, error) {
	if err := checkLengths(n, m); err != nil {
		return 0, err
	}
	if m > n {
		return 0, nil
	}
	// dp[j] = embeddings of y[:j] in the processed prefix of x.
	dp := make([]int64, m+1)
	dp[0] = 1
	for i := 0; i < n; i++ {
		xb := x >> uint(i) & 1
		// Descend j so each x bit is used at most once per embedding.
		for j := m; j >= 1; j-- {
			if y>>uint(j-1)&1 == xb {
				dp[j] += dp[j-1]
			}
		}
	}
	return dp[m], nil
}

// exactUniformRateReference is ExactUniformRate over the reference
// embedding count.
func exactUniformRateReference(n int, pd float64) (float64, error) {
	if err := checkExact(n, pd); err != nil {
		return 0, err
	}
	if pd == 1 {
		return 0, nil
	}
	numX := 1 << uint(n)
	px := 1 / float64(numX)

	// Precompute pd^(n-m)(1-pd)^m per output length m.
	lenP := make([]float64, n+1)
	for m := 0; m <= n; m++ {
		lenP[m] = math.Pow(pd, float64(n-m)) * math.Pow(1-pd, float64(m))
	}

	// outIndex(y, m) = unique index for output string y of length m.
	outOffset := make([]int, n+2)
	for m := 0; m <= n; m++ {
		outOffset[m+1] = outOffset[m] + (1 << uint(m))
	}
	numY := outOffset[n+1]

	py := make([]float64, numY)
	var hYgivenX float64 // sum_x p(x) H(Y|X=x)
	for x := 0; x < numX; x++ {
		var hx float64
		for m := 0; m <= n; m++ {
			for y := 0; y < 1<<uint(m); y++ {
				cnt, err := embeddingCountReference(uint32(x), n, uint32(y), m)
				if err != nil {
					return 0, err
				}
				p := float64(cnt) * lenP[m]
				if p > 0 {
					py[outOffset[m]+y] += px * p
					hx -= p * math.Log2(p)
				}
			}
		}
		hYgivenX += px * hx
	}
	var hY float64
	for _, p := range py {
		if p > 0 {
			hY -= p * math.Log2(p)
		}
	}
	rate := (hY - hYgivenX) / float64(n)
	if rate < 0 {
		rate = 0
	}
	return rate, nil
}

// monteCarloUniformRateReference is MonteCarloUniformRate with one
// rng.Bool coin per input bit, a transitionProb (two math.Pow calls and
// the reference embedding count) per sample.
func monteCarloUniformRateReference(n int, pd float64, samples int, src *rng.Source) (float64, error) {
	if err := checkMonteCarlo(n, pd, samples, src); err != nil {
		return 0, err
	}
	if pd == 1 {
		return 0, nil
	}
	hY := outputEntropy(n, pd)

	// Sampled H(Y|X) = -E[log2 p(y|x)].
	var hYX float64
	for s := 0; s < samples; s++ {
		x := uint32(src.Uint64n(1 << uint(n)))
		var y uint32
		m := 0
		for i := 0; i < n; i++ {
			if !src.Bool(pd) {
				y |= (x >> uint(i) & 1) << uint(m)
				m++
			}
		}
		pyx, err := transitionProb(x, n, y, m, pd)
		if err != nil {
			return 0, err
		}
		if pyx > 0 {
			hYX -= math.Log2(pyx)
		}
	}
	hYX /= float64(samples)

	rate := (hY - hYX) / float64(n)
	if rate < 0 {
		rate = 0
	}
	return rate, nil
}

// transitionProb returns P(y | x) for the deletion channel.
func transitionProb(x uint32, n int, y uint32, m int, pd float64) (float64, error) {
	cnt, err := embeddingCountReference(x, n, y, m)
	if err != nil {
		return 0, err
	}
	if cnt == 0 {
		return 0, nil
	}
	return float64(cnt) * math.Pow(pd, float64(n-m)) * math.Pow(1-pd, float64(m)), nil
}
