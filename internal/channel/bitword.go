package channel

import "repro/internal/rng"

// This file implements the packed-bit transmit engine behind
// BinaryDI.Transmit: bit sequences live in []uint64 bitsets (LSB-first
// within each word) and clean transmission runs move through the
// channel as word-wide blits — one uint64 operation advances up to 64
// channel uses' worth of data. The random stream is drawn use-by-use
// exactly as the scalar path draws it (the per-use variates ARE the
// channel model), so received bits, event statistics and subsequent RNG
// state are byte-identical to the reference; only the data movement and
// bookkeeping are word-at-a-time.

// packedBits is a little-endian bitset: bit i lives in word i>>6 at
// position i&63.
func bitAt(words []uint64, i int) uint64 {
	return words[i>>6] >> uint(i&63) & 1
}

// ensureBits grows words (with zeroed tail) to hold at least n bits.
func ensureBits(words []uint64, n int) []uint64 {
	need := (n + 63) >> 6
	for len(words) < need {
		words = append(words, 0)
	}
	return words
}

// copyBits blits n bits from src starting at srcPos into dst starting
// at dstPos, up to 64 bits per loop iteration. Destination bits outside
// the window are preserved.
func copyBits(dst []uint64, dstPos int, src []uint64, srcPos, n int) {
	for n > 0 {
		dw, db := dstPos>>6, uint(dstPos&63)
		sw, sb := srcPos>>6, uint(srcPos&63)
		k := 64 - db
		if avail := 64 - sb; avail < k {
			k = avail
		}
		if uint(n) < k {
			k = uint(n)
		}
		mask := uint64(1)<<k - 1 // k == 64 → 1<<64 == 0 → mask == ^0, as intended
		bits := src[sw] >> sb & mask
		dst[dw] = dst[dw]&^(mask<<db) | bits<<db
		dstPos += int(k)
		srcPos += int(k)
		n -= int(k)
	}
}

// transmitPackedBits pushes nbits bits (packed in `in`) through the
// Definition 1 channel at N = 1, returning the received bits packed and
// their count. Clean transmissions accumulate into runs that are
// blitted word-at-a-time; deletions, insertions and substitutions
// break the run and are handled per-event.
func (c *DeletionInsertion) transmitPackedBits(in []uint64, nbits int) ([]uint64, int) {
	var (
		src     = c.src
		tDel    = rng.ProbThreshold(c.params.Pd)
		tDelIns = rng.ProbThreshold(c.params.Pd + c.params.Pi)
		psZero  = c.params.Ps <= 0
		psOne   = c.params.Ps >= 1
		tSub    = rng.ProbThreshold(c.params.Ps)
	)
	out := make([]uint64, (nbits+63)>>6)
	outBits := 0
	i, runStart := 0, 0
	flush := func(end int) {
		if n := end - runStart; n > 0 {
			out = ensureBits(out, outBits+n)
			copyBits(out, outBits, in, runStart, n)
			outBits += n
		}
	}
	appendBit := func(b uint64) {
		out = ensureBits(out, outBits+1)
		out[outBits>>6] |= b << uint(outBits&63)
		outBits++
	}
	for i < nbits {
		u := src.Uint64() >> 11
		if u < tDel {
			flush(i)
			i++
			runStart = i
			continue
		}
		if u < tDelIns {
			b := src.Uint64() >> 63 // Symbol(1)
			flush(i)
			appendBit(b)
			runStart = i
			continue
		}
		sub := false
		if !psZero {
			sub = psOne || src.Uint64()>>11 < tSub
		}
		if sub {
			src.Uint64n(1) // delta draw: Intn(M-1) at M=2 always yields 0
			flush(i)
			appendBit(bitAt(in, i) ^ 1)
			i++
			runStart = i
			continue
		}
		i++ // clean transmission extends the current run
	}
	flush(nbits)
	return out, outBits
}
