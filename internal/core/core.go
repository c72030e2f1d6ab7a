// Package core implements the paper's primary contribution: capacity
// estimation of non-synchronous covert channels modeled as
// deletion–insertion channels (Wang & Lee, ICDCS 2005).
//
// It provides the analytic bounds of Theorems 1–5, the converted-channel
// capacity of Appendix A (Figure 5), the asymptotic convergence of
// equations 6–7, the capacity degradation rule of Section 4.4
// (C -> C*(1-Pd)), classic bounds for the no-feedback deletion channel
// discussed in Section 4.1, and estimation of the channel parameters
// from observed transmit/receive traces.
package core

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/infotheory"
	"repro/internal/stats"
)

// UpperBound returns the Theorem 1 / Theorem 4 capacity upper bound of a
// deletion–insertion channel, with or without feedback: the capacity of
// the matching (extended) erasure channel, N*(1-Pd) bits per channel
// use. It returns an error for invalid parameters.
func UpperBound(p channel.Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return float64(p.N) * (1 - p.Pd), nil
}

// FeedbackDeletionCapacity returns the exact capacity of a deletion
// channel (Pi = 0) with perfect feedback, Theorem 3: the upper bound
// N*(1-Pd) is achieved by the resend-until-acknowledged protocol. It
// returns an error if the parameters describe insertions (Pi != 0), for
// which only bounds are known (Theorems 4–5).
func FeedbackDeletionCapacity(p channel.Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Pi != 0 {
		return 0, fmt.Errorf("core: Theorem 3 applies to deletion-only channels, got Pi = %v", p.Pi)
	}
	return float64(p.N) * (1 - p.Pd), nil
}

// Alpha returns the paper's α = 1 - 2^(-N): the probability that a
// uniformly inserted symbol differs from the message symbol it replaces
// in the counter protocol's converted channel.
func Alpha(n int) float64 {
	return 1 - math.Exp2(-float64(n))
}

// ConvertedCapacity returns C_conv of Appendix A (paper equations 2–5):
// the capacity in bits per received slot of the M-ary symmetric channel
// (Figure 5) that the counter protocol converts the deletion–insertion
// channel into, with substitution probability α*Pi:
//
//	C_conv = N − α·Pi·log2(2^N − 1) − H(α·Pi)
//
// The value is clamped at 0 (the formula goes negative once the induced
// substitution rate exceeds the M-ary symmetric channel's zero-capacity
// point). It returns an error for an invalid width or probability.
func ConvertedCapacity(n int, pi float64) (float64, error) {
	if n < 1 || n > 16 {
		return 0, fmt.Errorf("core: symbol width %d out of [1,16]", n)
	}
	if math.IsNaN(pi) || pi < 0 || pi > 1 {
		return 0, fmt.Errorf("core: insertion probability %v out of [0,1]", pi)
	}
	e := Alpha(n) * pi
	return infotheory.MSCCapacity(1<<uint(n), e), nil
}

// ConvertedCapacityLargeN returns the paper's large-N approximation
// (equation 5): C_conv ≈ N(1 − Pi) − H(Pi).
func ConvertedCapacityLargeN(n int, pi float64) float64 {
	c := float64(n)*(1-pi) - infotheory.BinaryEntropy(pi)
	if c < 0 {
		c = 0
	}
	return c
}

// LowerBoundTheorem5 returns the paper's Theorem 5 lower bound on the
// capacity of a deletion–insertion channel with perfect feedback,
// achieved by the counter protocol of Appendix A:
//
//	C_lower = (1 − Pd)/(1 − Pi) · C_conv
//
// using the normalization printed in the paper. See LowerBoundPerUse for
// the strict bits-per-channel-use accounting.
func LowerBoundTheorem5(p channel.Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Pi >= 1 {
		return 0, nil
	}
	cconv, err := ConvertedCapacity(p.N, p.Pi)
	if err != nil {
		return 0, err
	}
	return (1 - p.Pd) / (1 - p.Pi) * cconv, nil
}

// LowerBoundPerUse returns the counter-protocol rate re-derived under
// strict per-channel-use accounting (see DESIGN.md "Normalization
// note"): the protocol delivers (1-Pd) received slots per channel use,
// of which a fraction Pi/(1-Pd) are insertions, so the converted
// channel's substitution probability is α·Pi/(1-Pd) and
//
//	C = (1 − Pd) · C_MSC(2^N, α·Pi/(1 − Pd))
//
// bits per channel use. The two normalizations agree to first order in
// Pd and Pi and both converge to the upper bound as N grows.
func LowerBoundPerUse(p channel.Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	delivered := 1 - p.Pd
	if delivered <= 0 {
		return 0, nil
	}
	e := Alpha(p.N) * p.Pi / delivered
	if e > 1 {
		e = 1
	}
	return delivered * infotheory.MSCCapacity(p.M(), e), nil
}

// ConvergenceRatio returns C_lower/C_upper for the symmetric case
// Pi = Pd used in the paper's equations 6–7. The ratio approaches 1 as
// N grows, showing the Theorem 5 bound is asymptotically tight. It
// returns an error for invalid arguments or Pd >= 1/2 (where Pd+Pi > 1).
func ConvergenceRatio(n int, pd float64) (float64, error) {
	p := channel.Params{N: n, Pd: pd, Pi: pd}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	upper, err := UpperBound(p)
	if err != nil {
		return 0, err
	}
	if upper == 0 {
		return 0, nil
	}
	lower, err := LowerBoundTheorem5(p)
	if err != nil {
		return 0, err
	}
	return lower / upper, nil
}

// Degrade applies the Section 4.4 rule: a covert channel whose
// synchronous ("traditional") capacity estimate is c has non-synchronous
// capacity estimate c*(1-Pd). It returns an error if c is negative or
// pd is outside [0,1].
func Degrade(c, pd float64) (float64, error) {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		return 0, fmt.Errorf("core: synchronous capacity %v must be a non-negative finite value", c)
	}
	if math.IsNaN(pd) || pd < 0 || pd > 1 {
		return 0, fmt.Errorf("core: deletion probability %v out of [0,1]", pd)
	}
	return c * (1 - pd), nil
}

// DeletionUpperBoundTrivial returns the erasure-channel upper bound
// 1 - Pd for the binary deletion channel without feedback (Theorem 1
// with N = 1).
func DeletionUpperBoundTrivial(pd float64) float64 { return 1 - pd }

// Bounds gathers every analytic estimate for one parameter set, the
// rows printed by cmd/covertcap and the experiment harness.
type Bounds struct {
	Params channel.Params
	// Upper is the Theorem 1/4 bound N(1-Pd).
	Upper float64
	// LowerT5 is the Theorem 5 bound in the paper's normalization.
	LowerT5 float64
	// LowerPerUse is the strict per-channel-use re-derivation.
	LowerPerUse float64
	// Cconv is the converted channel capacity per received slot.
	Cconv float64
	// CconvLargeN is the paper's equation 5 approximation.
	CconvLargeN float64
	// Ratio is LowerT5/Upper (0 when Upper is 0).
	Ratio float64
}

// ComputeBounds evaluates every bound for the given parameters.
func ComputeBounds(p channel.Params) (Bounds, error) {
	if err := p.Validate(); err != nil {
		return Bounds{}, err
	}
	upper, err := UpperBound(p)
	if err != nil {
		return Bounds{}, err
	}
	lowerT5, err := LowerBoundTheorem5(p)
	if err != nil {
		return Bounds{}, err
	}
	lowerPU, err := LowerBoundPerUse(p)
	if err != nil {
		return Bounds{}, err
	}
	cconv, err := ConvertedCapacity(p.N, p.Pi)
	if err != nil {
		return Bounds{}, err
	}
	b := Bounds{
		Params:      p,
		Upper:       upper,
		LowerT5:     lowerT5,
		LowerPerUse: lowerPU,
		Cconv:       cconv,
		CconvLargeN: ConvertedCapacityLargeN(p.N, p.Pi),
	}
	if upper > 0 {
		b.Ratio = lowerT5 / upper
	}
	return b, nil
}

// ConvertedChannelDMC returns the Figure 5 converted channel as a DMC
// (the M-ary symmetric channel with substitution probability α·Pi, in
// MSC's implicit O(2^N) form), for cross-validation of the closed form
// against the Blahut–Arimoto solver.
func ConvertedChannelDMC(n int, pi float64) (*infotheory.DMC, error) {
	if n < 1 || n > 12 {
		return nil, fmt.Errorf("core: DMC width %d out of [1,12] (alphabet 2^N)", n)
	}
	if math.IsNaN(pi) || pi < 0 || pi > 1 {
		return nil, fmt.Errorf("core: insertion probability %v out of [0,1]", pi)
	}
	return infotheory.MSC(1<<uint(n), Alpha(n)*pi)
}

// Estimate is the result of estimating channel parameters from observed
// traces, the paper's Section 4.4 procedure: "one could first use
// traditional methods to estimate the physical capacity C. The
// probability of deletion Pd should then be estimated. The real
// capacity can then be estimated as C*(1-Pd)."
type Estimate struct {
	// Params holds the point estimates of Pd, Pi, Ps for the given N.
	Params channel.Params
	// Uses is the number of channel uses implied by the alignment.
	Uses int
	// PdLo, PdHi bound Pd with a Wilson 95% interval.
	PdLo, PdHi float64
	// PiLo, PiHi bound Pi with a Wilson 95% interval.
	PiLo, PiHi float64
}

// EstimateFromTrace aligns a transmitted against a received symbol
// sequence and estimates the Definition 1 parameters. It returns an
// error for an invalid width or symbols outside the alphabet.
//
// The estimates come from a minimal edit-distance alignment, which
// cannot distinguish a substitution from a nearby deletion–insertion
// pair (the pair costs 2 edits, the substitution 1, so the alignment
// prefers the substitution). Pd and Pi are therefore biased low by
// O(Pd*Pi), with the missing mass appearing in Ps; the bias is
// negligible for the small event rates typical of covert channels.
func EstimateFromTrace(sent, received []uint32, n int) (Estimate, error) {
	if n < 1 || n > 16 {
		return Estimate{}, fmt.Errorf("core: symbol width %d out of [1,16]", n)
	}
	limit := uint32(1) << uint(n)
	for i, s := range sent {
		if s >= limit {
			return Estimate{}, fmt.Errorf("core: sent symbol %d (=%d) outside %d-bit alphabet", i, s, n)
		}
	}
	for i, s := range received {
		if s >= limit {
			return Estimate{}, fmt.Errorf("core: received symbol %d (=%d) outside %d-bit alphabet", i, s, n)
		}
	}
	counts := stats.Align(sent, received)
	pd, pi, ps := counts.Rates()
	uses := counts.Matches + counts.Substitutions + counts.Deletions + counts.Insertions
	est := Estimate{
		Params: channel.Params{N: n, Pd: pd, Pi: pi, Ps: ps},
		Uses:   uses,
	}
	est.PdLo, est.PdHi = stats.Proportion{K: counts.Deletions, N: uses}.Wilson95()
	est.PiLo, est.PiHi = stats.Proportion{K: counts.Insertions, N: uses}.Wilson95()
	return est, nil
}

// Bounds evaluates the analytic bounds at the estimated parameters.
func (e Estimate) Bounds() (Bounds, error) { return ComputeBounds(e.Params) }
