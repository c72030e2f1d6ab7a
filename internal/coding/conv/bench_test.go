package conv

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// benchReceived prepares a 96-bit frame pushed through the binary
// deletion-insertion channel.
func benchReceived(b *testing.B, pd, pi float64) ([]byte, []byte, *Code) {
	b.Helper()
	c := Standard()
	src := rng.New(1)
	msg := randomBits(src, 96)
	cw, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.NewBinaryDI(pd, pi, 0, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	recv, err := ch.Transmit(cw)
	if err != nil {
		b.Fatal(err)
	}
	return msg, recv, c
}

func BenchmarkViterbiSynchronous(b *testing.B) {
	c := Standard()
	src := rng.New(3)
	msg := randomBits(src, 96)
	cw, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeViterbi(cw, len(msg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftViterbi times drift-trellis decoding of one frame.
func BenchmarkDriftViterbi(b *testing.B) {
	msg, recv, c := benchReceived(b, 0.005, 0.005)
	p := DriftParams{Pd: 0.005, Pi: 0.005, MaxDrift: 10}
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeDrift(recv, len(msg), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialStack times sequential decoding of one frame.
func BenchmarkSequentialStack(b *testing.B) {
	msg, recv, c := benchReceived(b, 0.005, 0.005)
	p := SequentialParams{Pd: 0.005, Pi: 0.005, MaxDrift: 10}
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeSequential(recv, len(msg), p); err != nil {
			b.Fatal(err)
		}
	}
}
