package channel

import (
	"testing"

	"repro/internal/rng"
)

var recvSink []uint32

// BenchmarkTransmit times 4096 symbols through the Definition 1
// channel. Each op rebuilds the channel from the same seed, so every op
// consumes identical draws.
func BenchmarkTransmit(b *testing.B) {
	p := Params{N: 4, Pd: 0.1, Pi: 0.05, Ps: 0.01}
	input := randomSymbols(rng.New(2), 4096, 4)
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		c, err := NewDeletionInsertion(p, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		recvSink, _ = c.Transmit(input)
	}
}

// BenchmarkBinaryTransmit times 4096 bits through BinaryDI, each op on
// a channel rebuilt from the same seed.
func BenchmarkBinaryTransmit(b *testing.B) {
	const pd, pi, ps = 0.01, 0.01, 0.005
	syms := randomSymbols(rng.New(5), 4096, 1)
	bits := make([]byte, len(syms))
	for i, s := range syms {
		bits[i] = byte(s)
	}
	b.SetBytes(int64(len(bits)))
	for i := 0; i < b.N; i++ {
		c, err := NewBinaryDI(pd, pi, ps, rng.New(6))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Transmit(bits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBurstyTransmit(b *testing.B) {
	c, err := NewBursty(BurstParams{
		N:          4,
		Good:       Params{Pd: 0.02, Pi: 0.01},
		Bad:        Params{Pd: 0.5, Pi: 0.2},
		PGoodToBad: 0.02,
		PBadToGood: 0.2,
	}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	input := randomSymbols(rng.New(4), 4096, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit(input)
	}
	b.SetBytes(int64(len(input)))
}
