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
// the processed prefix of x) in one of two exact forms, chosen by the
// number of deletions d = n-m. Counts are exact integers, so both give
// dp[m] identical to the full program's for every (x, y).
//
// When d is below the lane count of n's layout (laneLayout), the states
// that can still reach dp[m] are those that skip k = 0..d bits of x,
// held as lanes of one word: after bit i, lane k is dp[i+1-k]. Bit i
// moves lane k-1 into lane k (x's bit skipped) and adds lane k to
// itself where y's bit i-k equals x's (bit used), one shift, mask and
// add for all lanes. Lane k never exceeds C(i+1, k), which the layout's
// width holds for every lane up to the count, so no lane that reaches
// the count carries. A state never loses a skip, so lanes above d never
// reach lane d, and neither do the skips shifted out of the word. Bits
// of y at or above m only feed states whose prefix is already longer
// than m, which never reach lane d either, so y may carry any bits
// there.
//
// For more deletions it runs the program on a stack array and updates
// only the feasible band: after bit i, j <= i+1 (no longer prefix fits
// in i+1 bits, so those states are still 0 and their update would add
// 0), and j >= m-(n-1-i) (with n-1-i bits left, a shorter prefix can
// never grow to length m, so those states are never read on the way to
// dp[m]; the lower edge rises by one per bit, so every in-band update
// reads an in-band or dp[0] state of the previous bit).
func embeddingCount(x uint32, n int, y uint32, m int) int64 {
	if m > n {
		return 0
	}
	l := &wideLanes
	if n <= 12 {
		l = &narrowLanes
	}
	if d := n - m; d < l.lanes {
		// x and y shift right once per bit, so at bit i their bit 0 is
		// their bit i. w's bit k is y's bit i-k, and eq's bit k is 1
		// where that equals x's bit i (x&1-1 is all ones for a 0 bit of
		// x and zero for a 1 bit).
		f, w := uint64(1), uint64(0)
		width, mask := l.width&63, &l.mask
		for i := 0; i < n; i++ {
			w = w<<1 | uint64(y&1)
			eq := w ^ (uint64(x&1) - 1)
			f = f<<width + f&mask[eq&63]
			x, y = x>>1, y>>1
		}
		return int64(f >> (width * uint(d)) & (1<<width - 1))
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

// laneLayout is one packing of embeddingCount's lanes into a word:
// lanes lanes of width bits, lane k at bits width·k onwards. mask[eq]
// is all ones over lane k where bit k of eq is set, for k below lanes,
// and zero elsewhere.
type laneLayout struct {
	width uint
	lanes int
	mask  [64]uint64
}

// narrowLanes serves n <= 12: lane k <= C(12, k) <= C(12, 5) = 792
// fits 10 bits, so six lanes count up to five deletions. wideLanes
// serves n <= 20: C(20, 3) = 1140 fits 16 bits, and four lanes count up
// to three.
var narrowLanes, wideLanes = newLaneLayout(10, 6), newLaneLayout(16, 4)

func newLaneLayout(width uint, lanes int) (l laneLayout) {
	l.width, l.lanes = width, lanes
	for eq := range l.mask {
		for k := 0; k < lanes; k++ {
			if eq>>k&1 == 1 {
				l.mask[eq] |= (1<<width - 1) << (width * uint(k))
			}
		}
	}
	return l
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
// the n per-bit coins as one rng.BoolMask against
// rng.ProbThreshold(pd), whose bit i is rng.Bool(pd) on the i-th draw
// (and, as Bool does, nothing is drawn at pd == 0). A sample without
// deletions has y = x and count 1; otherwise y is x's kept bits, packed
// four at a time through nibbleKeep. P(y|x) multiplies the count by
// per-call tables of the same math.Pow values in the reference's
// order. A call sees few
// distinct (deletions, count) pairs, so it takes math.Log2 of each
// pair's product once and subtracts the stored value, summing samples in
// the reference's order. The estimate and the source's position
// afterwards are therefore bit-identical.
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
	// log2P[d][cnt] is math.Log2 of P(y|x) for d deletions and count
	// cnt, filled on first use; 0 marks an entry not yet filled (or
	// log2 P = 0, which costs only a recomputation). Larger counts, and
	// products that are not positive, take the direct path.
	var log2P [21][logCounts]float64

	// Sampled H(Y|X) = -E[log2 p(y|x)].
	var hYX float64
	for s := 0; s < samples; s++ {
		x := uint32(src.Uint64n(1 << uint(n)))
		y, m := x, n
		cnt := int64(1) // no deletion: y = x, embedded once
		if pd > 0 {
			if gone := uint32(src.BoolMask(n, thr)); gone != 0 {
				kept := ^gone & (1<<uint(n) - 1)
				y, m = 0, 0
				for i := 0; i < n; i += 4 {
					e := nibbleKeep[kept>>uint(i)&15][x>>uint(i)&15]
					y |= uint32(e&15) << uint(m)
					m += int(e >> 4)
				}
				cnt = embeddingCount(x, n, y, m)
			}
		}
		d := n - m
		if cnt < logCounts {
			lg := &log2P[d][cnt]
			if *lg == 0 {
				if pyx := float64(cnt) * del[d] * keep[m]; pyx > 0 {
					*lg = math.Log2(pyx)
				}
			}
			hYX -= *lg
		} else if pyx := float64(cnt) * del[d] * keep[m]; pyx > 0 {
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

// nibbleKeep[k][v] packs the bits of the 4-bit value v that the 4-bit
// mask k keeps into its low nibble, in order, and holds their number in
// its high nibble.
var nibbleKeep = func() (t [16][16]uint8) {
	for k := range t {
		for v := range t[k] {
			var packed, kept uint8
			for b := 0; b < 4; b++ {
				if k>>b&1 == 1 {
					packed |= uint8(v>>b&1) << kept
					kept++
				}
			}
			t[k][v] = kept<<4 | packed
		}
	}
	return t
}()

// logCounts bounds the embedding counts MonteCarloUniformRate keeps
// log2 P(y|x) for: at n = 12 and pd up to 0.22 all but a few percent of
// samples count fewer embeddings.
const logCounts = 64

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
