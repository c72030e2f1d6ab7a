package channel

import (
	"testing"

	"repro/internal/rng"
)

// fastPathGrid is the parameter sweep shared by the differential tests:
// boundary and interior rates, including Ps = 0 (no substitution draw)
// and Ps = 1 (substitution without a Bernoulli draw).
var fastPathGrid = []Params{
	{N: 1, Pd: 0, Pi: 0, Ps: 0},
	{N: 1, Pd: 0.1, Pi: 0, Ps: 0},
	{N: 1, Pd: 0, Pi: 0.1, Ps: 0},
	{N: 1, Pd: 0, Pi: 0, Ps: 0.05},
	{N: 1, Pd: 0.1, Pi: 0.05, Ps: 0.01},
	{N: 1, Pd: 0.3, Pi: 0.3, Ps: 0.2},
	{N: 1, Pd: 0.05, Pi: 0.02, Ps: 1},
	{N: 1, Pd: 1, Pi: 0, Ps: 0},
	{N: 4, Pd: 0.1, Pi: 0.05, Ps: 0.01},
	{N: 4, Pd: 0, Pi: 0, Ps: 0.5},
	{N: 8, Pd: 0.02, Pi: 0.02, Ps: 0.02},
	{N: 16, Pd: 0.2, Pi: 0.1, Ps: 0.3},
}

// TestTransmitFastMatchesReference runs the integer-threshold fast path
// and the per-use reference on identical seeds and asserts identical
// received sequences, traces and post-transmit RNG state.
func TestTransmitFastMatchesReference(t *testing.T) {
	for pi, p := range fastPathGrid {
		for seed := uint64(1); seed <= 5; seed++ {
			gen := rng.New(seed * 77)
			input := make([]uint32, 500)
			for i := range input {
				input[i] = gen.Symbol(p.N)
			}
			srcFast := rng.New(seed)
			srcRef := rng.New(seed)
			fast, err := NewDeletionInsertion(p, srcFast)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewDeletionInsertion(p, srcRef)
			if err != nil {
				t.Fatal(err)
			}
			gotRecv, gotTrace := fast.Transmit(input)
			wantRecv, wantTrace := ref.TransmitReference(input)
			if len(gotRecv) != len(wantRecv) || len(gotTrace) != len(wantTrace) {
				t.Fatalf("params %d seed %d: lengths (%d,%d) != reference (%d,%d)",
					pi, seed, len(gotRecv), len(gotTrace), len(wantRecv), len(wantTrace))
			}
			for i := range wantRecv {
				if gotRecv[i] != wantRecv[i] {
					t.Fatalf("params %d seed %d: received[%d] = %d, reference %d", pi, seed, i, gotRecv[i], wantRecv[i])
				}
			}
			for i := range wantTrace {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("params %d seed %d: trace[%d] = %v, reference %v", pi, seed, i, gotTrace[i], wantTrace[i])
				}
			}
			// The fast path must consume exactly the same number of
			// draws: downstream code sharing the source depends on it.
			for k := 0; k < 4; k++ {
				if a, b := srcFast.Uint64(), srcRef.Uint64(); a != b {
					t.Fatalf("params %d seed %d: RNG diverged after transmit (draw %d)", pi, seed, k)
				}
			}
		}
	}
}

// TestBinaryDIPackedMatchesReference checks the word-at-a-time bitset
// engine against the scalar per-use reference at N = 1: identical bits
// out, identical RNG state after.
func TestBinaryDIPackedMatchesReference(t *testing.T) {
	for pi, p := range fastPathGrid {
		if p.N != 1 {
			continue
		}
		for seed := uint64(1); seed <= 8; seed++ {
			gen := rng.New(seed * 131)
			// Lengths straddling word boundaries exercise the blits.
			for _, nbits := range []int{0, 1, 63, 64, 65, 700} {
				bits := make([]byte, nbits)
				for i := range bits {
					bits[i] = gen.Bit()
				}
				srcFast := rng.New(seed)
				srcRef := rng.New(seed)
				fast, err := NewBinaryDI(p.Pd, p.Pi, p.Ps, srcFast)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewDeletionInsertion(p, srcRef)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.Transmit(bits)
				if err != nil {
					t.Fatal(err)
				}
				in := make([]uint32, nbits)
				for i, b := range bits {
					in[i] = uint32(b)
				}
				wantRecv, _ := ref.TransmitReference(in)
				if len(got) != len(wantRecv) {
					t.Fatalf("params %d seed %d nbits %d: %d bits out, reference %d", pi, seed, nbits, len(got), len(wantRecv))
				}
				for i := range wantRecv {
					if uint32(got[i]) != wantRecv[i] {
						t.Fatalf("params %d seed %d nbits %d: bit %d = %d, reference %d", pi, seed, nbits, i, got[i], wantRecv[i])
					}
				}
				if a, b := srcFast.Uint64(), srcRef.Uint64(); a != b {
					t.Fatalf("params %d seed %d nbits %d: RNG diverged after transmit", pi, seed, nbits)
				}
			}
		}
	}
}

// TestCopyBits exercises the blit helper across alignments.
func TestCopyBits(t *testing.T) {
	gen := rng.New(3)
	src := make([]uint64, 8)
	for i := range src {
		src[i] = gen.Uint64()
	}
	for _, tc := range []struct{ dstPos, srcPos, n int }{
		{0, 0, 64}, {0, 0, 256}, {3, 5, 100}, {63, 1, 65}, {10, 70, 1}, {0, 0, 0}, {7, 7, 511 - 7},
	} {
		dst := make([]uint64, 8)
		copyBits(dst, tc.dstPos, src, tc.srcPos, tc.n)
		for i := 0; i < tc.n; i++ {
			if bitAt(dst, tc.dstPos+i) != bitAt(src, tc.srcPos+i) {
				t.Fatalf("copyBits(%+v): bit %d mismatch", tc, i)
			}
		}
		for i := 0; i < tc.dstPos; i++ {
			if bitAt(dst, i) != 0 {
				t.Fatalf("copyBits(%+v): clobbered bit %d before window", tc, i)
			}
		}
		for i := tc.dstPos + tc.n; i < len(dst)*64; i++ {
			if bitAt(dst, i) != 0 {
				t.Fatalf("copyBits(%+v): clobbered bit %d after window", tc, i)
			}
		}
	}
}
