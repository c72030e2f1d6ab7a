package experiments

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/coding/gf"
	"repro/internal/coding/rs"
	"repro/internal/coding/watermark"
	"repro/internal/rng"
)

// Ablation experiments for the design choices called out in DESIGN.md:
// the decoder's drift window (cost/accuracy trade-off), the outer
// code's redundancy, and the watermark inner code's sparse length.

// A1DriftWindow measures watermark decoding accuracy and cost as the
// drift window grows: too small a window disconnects the lattice; past
// the realized drift scale, extra width only costs time. The cost
// column is the decoder's lattice size, (len(tx)+1)·(2·MaxDrift+1)
// cells, which decode time follows; a measured time would make the
// table differ between two runs of one seed.
func A1DriftWindow(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "A1",
		Title:  "Ablation: watermark decoder drift window (accuracy vs cost)",
		Header: []string{"MaxDrift", "decoded", "sym.err.rate", "lattice cells"},
		Notes: []string{
			"expected shape: failures at tiny windows, stable error rate beyond the",
			"drift scale, decode time roughly linear in window width",
		},
	}
	const pd, pi = 0.01, 0.01
	numSyms := cfg.CodedSymbols * 2
	syms := make([]uint32, numSyms)
	src := rng.New(cfg.Seed + 401)
	for i := range syms {
		syms[i] = uint32(src.Intn(16))
	}
	for _, drift := range []int{2, 4, 8, 16, 32, 64} {
		wc, err := watermark.New(watermark.Params{
			ChunkBits: 4,
			SparseLen: 8,
			Pd:        pd,
			Pi:        pi,
			MaxDrift:  drift,
			Seed:      cfg.Seed + 403,
		})
		if err != nil {
			return Table{}, err
		}
		tx, err := wc.Encode(syms)
		if err != nil {
			return Table{}, err
		}
		ch, err := channel.NewBinaryDI(pd, pi, 0, rng.New(cfg.Seed+405))
		if err != nil {
			return Table{}, err
		}
		recv, err := ch.Transmit(tx)
		if err != nil {
			return Table{}, err
		}
		t.Uses += int64(len(tx))
		cells := fmt.Sprint((len(tx) + 1) * (2*drift + 1))
		dec, err := wc.Decode(recv, numSyms)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(drift), "no", "-", cells})
			continue
		}
		errs := 0
		for i, v := range dec.Symbols {
			if v != syms[i] {
				errs++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(drift), "yes",
			f4(float64(errs) / float64(numSyms)),
			cells,
		})
	}
	return t, nil
}

// A2OuterRedundancy sweeps the Reed–Solomon redundancy above a fixed
// watermark inner code, showing the residual-error / rate trade-off.
func A2OuterRedundancy(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "A2",
		Title:  "Ablation: RS outer redundancy over the watermark inner code",
		Header: []string{"RS(n,k)", "outer rate", "payload err rate", "net rate(bits/ch.bit)"},
		Notes: []string{
			"expected shape: more redundancy cuts the residual error toward 0 while the",
			"net rate peaks where the redundancy just covers the inner error rate",
		},
	}
	const pd, pi = 0.015, 0.015
	wc, err := watermark.New(watermark.Params{
		ChunkBits: 4,
		SparseLen: 8,
		Pd:        pd,
		Pi:        pi,
		MaxDrift:  24,
		Seed:      cfg.Seed + 407,
	})
	if err != nil {
		return Table{}, err
	}
	field, err := gf.Default(4)
	if err != nil {
		return Table{}, err
	}
	blocks := cfg.CodedSymbols / 15
	if blocks < 6 {
		blocks = 6
	}
	for _, k := range []int{13, 11, 9, 7, 5} {
		outer, err := rs.New(field, 15, k)
		if err != nil {
			return Table{}, err
		}
		src := rng.New(cfg.Seed + 409)
		var stream, payload []uint32
		for b := 0; b < blocks; b++ {
			msg := make([]uint32, k)
			for i := range msg {
				msg[i] = uint32(src.Intn(16))
			}
			cw, err := outer.Encode(msg)
			if err != nil {
				return Table{}, err
			}
			payload = append(payload, msg...)
			stream = append(stream, cw...)
		}
		tx, err := wc.Encode(stream)
		if err != nil {
			return Table{}, err
		}
		ch, err := channel.NewBinaryDI(pd, pi, 0, rng.New(cfg.Seed+411))
		if err != nil {
			return Table{}, err
		}
		recv, err := ch.Transmit(tx)
		if err != nil {
			return Table{}, err
		}
		t.Uses += int64(len(tx))
		dec, err := wc.Decode(recv, len(stream))
		if err != nil {
			return Table{}, err
		}
		wrong := 0
		for b := 0; b < blocks; b++ {
			block := append([]uint32(nil), dec.Symbols[b*15:(b+1)*15]...)
			msg, err := outer.Decode(block)
			if err != nil {
				msg = block[:k]
			}
			for i := range msg {
				if msg[i] != payload[b*k+i] {
					wrong++
				}
			}
		}
		errRate := float64(wrong) / float64(len(payload))
		net := float64(len(payload)*4) / float64(len(tx)) * (1 - errRate)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("RS(15,%d)", k),
			f3(float64(k) / 15),
			f4(errRate),
			f4(net),
		})
	}
	return t, nil
}

// A3SparseLength sweeps the watermark inner code's sparse length n for
// fixed 4-bit chunks: shorter n means higher raw rate but denser
// sparse noise and worse synchronization recovery.
func A3SparseLength(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "A3",
		Title:  "Ablation: watermark sparse length (inner rate vs robustness)",
		Header: []string{"SparseLen", "inner rate", "density f", "sym.err.rate"},
		Notes: []string{
			"expected shape: symbol error rate falls as the sparse length grows",
			"(more redundancy per chunk), at proportional cost in rate",
		},
	}
	const pd, pi = 0.01, 0.01
	numSyms := cfg.CodedSymbols * 2
	src := rng.New(cfg.Seed + 413)
	syms := make([]uint32, numSyms)
	for i := range syms {
		syms[i] = uint32(src.Intn(16))
	}
	for _, sparse := range []int{5, 6, 8, 10, 12} {
		wc, err := watermark.New(watermark.Params{
			ChunkBits: 4,
			SparseLen: sparse,
			Pd:        pd,
			Pi:        pi,
			MaxDrift:  24,
			Seed:      cfg.Seed + 415,
		})
		if err != nil {
			return Table{}, err
		}
		tx, err := wc.Encode(syms)
		if err != nil {
			return Table{}, err
		}
		ch, err := channel.NewBinaryDI(pd, pi, 0, rng.New(cfg.Seed+417))
		if err != nil {
			return Table{}, err
		}
		recv, err := ch.Transmit(tx)
		if err != nil {
			return Table{}, err
		}
		t.Uses += int64(len(tx))
		dec, err := wc.Decode(recv, numSyms)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(sparse), f3(wc.Rate()), f3(wc.Density()), "failed"})
			continue
		}
		errs := 0
		for i, v := range dec.Symbols {
			if v != syms[i] {
				errs++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(sparse), f3(wc.Rate()), f3(wc.Density()),
			f4(float64(errs) / float64(numSyms)),
		})
	}
	return t, nil
}
