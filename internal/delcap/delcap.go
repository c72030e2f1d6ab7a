// Package delcap computes information rates of the binary deletion
// channel without feedback — the quantity the paper's Section 4.1
// discusses through its references [7][8][9] (Dobrushin's coding
// theorem for synchronization-error channels, Vvedenskaya–Dobrushin's
// computer computation of drop-out channel capacity, and Dolgopolov's
// capacity bounds). The exact capacity is unknown to this day; this
// package provides
//
//   - the exact finite-blocklength information rate I(X^n; Y)/n for
//     i.i.d. uniform inputs with known block boundaries, computed by
//     exhaustive enumeration with a subsequence-embedding dynamic
//     program (the modern rendering of Vvedenskaya–Dobrushin's
//     computation). Known boundaries act as synchronization side
//     information, so the series *decreases* with n toward the
//     channel's i.u.d. information rate; the n = 1 point recovers the
//     erasure channel rate 1-Pd exactly;
//   - an unbiased Monte-Carlo estimator of the same quantity for
//     blocklengths where enumeration is infeasible (exploiting that
//     the uniform-input output law of the deletion channel is
//     closed-form: H(Y) = H(Binomial(n, 1-Pd)) + E[M]);
//   - the classic analytic bounds 1-H(Pd) (achievable, Gallager) and
//     1-Pd (erasure upper bound).
package delcap

import (
	"fmt"
	"math"

	"repro/internal/infotheory"
	"repro/internal/rng"
)

// EmbeddingCount returns the number of ways y occurs as a subsequence
// of x, the combinatorial core of the deletion channel's transition
// probability: P(y | x) = count * Pd^(len(x)-len(y)) * (1-Pd)^len(y).
// Sequences are bit strings packed little-endian into uint32 with
// explicit lengths (n, m <= 20).
func EmbeddingCount(x uint32, n int, y uint32, m int) (int64, error) {
	if err := checkLengths(n, m); err != nil {
		return 0, err
	}
	return embeddingCount(x, n, y, m), nil
}

// checkLengths validates EmbeddingCount's sequence lengths.
func checkLengths(n, m int) error {
	if n < 0 || n > 20 || m < 0 || m > 20 {
		return fmt.Errorf("delcap: lengths (%d, %d) out of [0,20]", n, m)
	}
	return nil
}

// embeddingCount is EmbeddingCount's kernel for lengths in [0, 20]. It
// runs the reference dynamic program (dp[j] = embeddings of y[:j] in
// the processed prefix of x) on a stack array and updates only the
// feasible band: after bit i, j <= i+1 (no longer prefix fits in i+1
// bits, so those states are still 0 and their update would add 0), and
// j >= m-(n-1-i) (with n-1-i bits left, a shorter prefix can never grow
// to length m, so those states are never read on the way to dp[m]; the
// lower edge rises by one per bit, so every in-band update reads an
// in-band or dp[0] state of the previous bit). Counts are exact
// integers, so dp[m] is identical to the full program's for every
// (x, y).
func embeddingCount(x uint32, n int, y uint32, m int) int64 {
	if m > n {
		return 0
	}
	var dp [21]int64
	dp[0] = 1
	for i := 0; i < n; i++ {
		xb := x >> uint(i) & 1
		// Descend j so each x bit is used at most once per embedding;
		// the mask adds dp[j-1] exactly when y's bit j-1 equals xb.
		for j := min(m, i+1); j >= max(1, m-(n-1-i)); j-- {
			dp[j] += dp[j-1] & -int64(y>>uint(j-1)&1^xb^1)
		}
	}
	return dp[m]
}

// ExactUniformRate computes I(X^n; Y)/n in bits for the binary
// deletion channel with i.i.d. uniform inputs of blocklength n, by
// exact enumeration over all inputs and all output lengths. It is
// exponential in n; n is limited to 12.
func ExactUniformRate(n int, pd float64) (float64, error) {
	if err := checkExact(n, pd); err != nil {
		return 0, err
	}
	if pd == 1 {
		return 0, nil
	}
	numX := 1 << uint(n)
	px := 1 / float64(numX)

	// Precompute pd^(n-m)(1-pd)^m per output length m.
	var lenP [13]float64
	for m := 0; m <= n; m++ {
		lenP[m] = math.Pow(pd, float64(n-m)) * math.Pow(1-pd, float64(m))
	}

	// Output y of length m has index 2^m - 1 + y: the 2^m - 1 shorter
	// outputs come first.
	py := make([]float64, 1<<uint(n+1)-1)
	var hYgivenX float64 // sum_x p(x) H(Y|X=x)
	for x := 0; x < numX; x++ {
		var hx float64
		for m := 0; m <= n; m++ {
			off := 1<<uint(m) - 1
			for y := 0; y < 1<<uint(m); y++ {
				p := float64(embeddingCount(uint32(x), n, uint32(y), m)) * lenP[m]
				if p > 0 {
					py[off+y] += px * p
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

// checkExact validates ExactUniformRate's arguments.
func checkExact(n int, pd float64) error {
	if n < 1 || n > 12 {
		return fmt.Errorf("delcap: blocklength %d out of [1,12] for exact enumeration", n)
	}
	if math.IsNaN(pd) || pd < 0 || pd > 1 {
		return fmt.Errorf("delcap: deletion probability %v out of [0,1]", pd)
	}
	return nil
}

// MonteCarloUniformRate estimates I(X^n; Y)/n for i.i.d. uniform
// inputs. The key simplification: for uniform i.i.d. inputs the
// deletion channel's output law is closed-form — deletions are
// value-independent and surviving bits are i.i.d. uniform, so
// P(Y = y, |y| = m) = Binom(n, 1-pd)(m) * 2^(-m) and
// H(Y) = H(M) + E[M] exactly. Only H(Y|X) = -E[log2 P(y|x)] is
// estimated by sampling, with P(y|x) computed exactly per sample via
// the embedding-count dynamic program, so the estimator is unbiased
// with variance O(1/samples). n is limited to 20 so embedding counts
// stay in range.
//
// The sampling loop allocates nothing and draws exactly what the
// reference draws, in the same order: Uint64n(2^n) for the input, then
// per bit one 53-bit draw compared against rng.ProbThreshold(pd), which
// decides as rng.Bool(pd) does on the same draw (and, as Bool does,
// draws nothing at pd == 0). P(y|x) multiplies the count by per-call
// tables of the same math.Pow values in the reference's order, so the
// estimate and the source's position afterwards are bit-identical.
func MonteCarloUniformRate(n int, pd float64, samples int, src *rng.Source) (float64, error) {
	if err := checkMonteCarlo(n, pd, samples, src); err != nil {
		return 0, err
	}
	if pd == 1 {
		return 0, nil
	}
	hY := outputEntropy(n, pd)

	// del[k] = pd^k and keep[k] = (1-pd)^k, so P(y|x) for |y| = m is
	// (cnt * del[n-m]) * keep[m].
	var del, keep [21]float64
	for k := 0; k <= n; k++ {
		del[k] = math.Pow(pd, float64(k))
		keep[k] = math.Pow(1-pd, float64(k))
	}
	thr := rng.ProbThreshold(pd)

	// Sampled H(Y|X) = -E[log2 p(y|x)].
	var hYX float64
	for s := 0; s < samples; s++ {
		x := uint32(src.Uint64n(1 << uint(n)))
		y, m := x, n
		if pd > 0 {
			y, m = 0, 0
			for i := 0; i < n; i++ {
				if src.Uint64()>>11 >= thr {
					y |= (x >> uint(i) & 1) << uint(m)
					m++
				}
			}
		}
		if pyx := float64(embeddingCount(x, n, y, m)) * del[n-m] * keep[m]; pyx > 0 {
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

// checkMonteCarlo validates MonteCarloUniformRate's arguments.
func checkMonteCarlo(n int, pd float64, samples int, src *rng.Source) error {
	if n < 1 || n > 20 {
		return fmt.Errorf("delcap: blocklength %d out of [1,20]", n)
	}
	if math.IsNaN(pd) || pd < 0 || pd > 1 {
		return fmt.Errorf("delcap: deletion probability %v out of [0,1]", pd)
	}
	if samples < 1 {
		return fmt.Errorf("delcap: sample size must be positive")
	}
	if src == nil {
		return fmt.Errorf("delcap: nil randomness source")
	}
	return nil
}

// outputEntropy returns the exact H(Y) = H(M) + E[M] of the
// uniform-input deletion channel, M ~ Binomial(n, 1-pd).
func outputEntropy(n int, pd float64) float64 {
	var hM, eM float64
	for m := 0; m <= n; m++ {
		p := binomPMF(n, m, 1-pd)
		if p > 0 {
			hM -= p * math.Log2(p)
			eM += p * float64(m)
		}
	}
	return hM + eM
}

// binomPMF returns the Binomial(n, p) probability mass at k, computed
// in log space for stability.
func binomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	logP := lg - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logP)
}

// GallagerLowerBound returns the achievable rate 1 - H(pd), clamped
// at 0 (valid as a lower bound for pd < 1/2).
func GallagerLowerBound(pd float64) float64 {
	if pd >= 0.5 {
		return 0
	}
	c := 1 - infotheory.BinaryEntropy(pd)
	if c < 0 {
		c = 0
	}
	return c
}
