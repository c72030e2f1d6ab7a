package channel

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Erasure models the symbol erasure channel used as the comparison
// point in Theorem 1: each input symbol is independently erased with
// probability Pe; the receiver observes either the symbol or an
// explicit erasure mark at the symbol's position (no insertions, no
// reordering). Its capacity is N*(1-Pe) bits per use.
type Erasure struct {
	n   int
	pe  float64
	src *rng.Source
}

// NewErasure returns an erasure channel over n-bit symbols with erasure
// probability pe.
func NewErasure(n int, pe float64, src *rng.Source) (*Erasure, error) {
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("channel: erasure symbol width %d out of [1,16]", n)
	}
	if math.IsNaN(pe) || pe < 0 || pe > 1 {
		return nil, fmt.Errorf("channel: erasure probability %v out of [0,1]", pe)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil randomness source")
	}
	return &Erasure{n: n, pe: pe, src: src}, nil
}

// ErasedSymbol is one output of the erasure channel.
type ErasedSymbol struct {
	// Symbol is the delivered symbol, valid only when !Erased.
	Symbol uint32
	// Erased reports whether the position was erased.
	Erased bool
}

// Transmit returns one output entry per input symbol.
func (c *Erasure) Transmit(input []uint32) []ErasedSymbol {
	out := make([]ErasedSymbol, len(input))
	for i, s := range input {
		if c.src.Bool(c.pe) {
			out[i] = ErasedSymbol{Erased: true}
		} else {
			out[i] = ErasedSymbol{Symbol: s}
		}
	}
	return out
}
