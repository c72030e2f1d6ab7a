package channel

import (
	"fmt"

	"repro/internal/rng"
)

// BinaryDI is a convenience wrapper around the Definition 1 channel for
// bit sequences (N = 1), the model used by the coding schemes of
// Section 4.1 (watermark codes, drift-trellis convolutional decoding,
// VT codes): each channel use deletes the next bit with probability Pd,
// inserts a uniform random bit with probability Pi, or transmits with
// flip probability Ps.
type BinaryDI struct {
	inner *DeletionInsertion
}

// NewBinaryDI returns a binary deletion–insertion channel.
func NewBinaryDI(pd, pi, ps float64, src *rng.Source) (*BinaryDI, error) {
	inner, err := NewDeletionInsertion(Params{N: 1, Pd: pd, Pi: pi, Ps: ps}, src)
	if err != nil {
		return nil, err
	}
	return &BinaryDI{inner: inner}, nil
}

// Params returns the underlying channel parameters.
func (c *BinaryDI) Params() Params { return c.inner.Params() }

// Transmit pushes a bit sequence (elements 0/1) through the channel.
// It returns an error if the input contains non-binary elements. Each
// bit is an N = 1 symbol of the underlying Definition 1 channel.
func (c *BinaryDI) Transmit(bits []byte) ([]byte, error) {
	in := make([]uint32, len(bits))
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("channel: input element %d is %d, want 0 or 1", i, b)
		}
		in[i] = uint32(b)
	}
	recv, _ := c.inner.Transmit(in)
	out := make([]byte, len(recv))
	for i, s := range recv {
		out[i] = byte(s)
	}
	return out, nil
}
