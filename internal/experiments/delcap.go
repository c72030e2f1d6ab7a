package experiments

import (
	"repro/internal/core"
	"repro/internal/delcap"
	"repro/internal/rng"
)

// E11DeletionRates reproduces the Section 4.1 background (references
// [8][9]): numerically computed information rates of the binary
// deletion channel without feedback, bracketed by the Gallager
// achievable rate 1-H(Pd) and the erasure bound 1-Pd. The exact
// finite-blocklength series (known block boundaries) decreases with n
// toward the boundary-free rate; the Monte-Carlo column extends it to
// n = 20.
func E11DeletionRates(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:    "E11",
		Title: "Refs [8][9]: numerical deletion-channel information rates (uniform input)",
		Header: []string{
			"Pd", "1-H(Pd)", "I_n/n (n=4)", "I_n/n (n=8)", "I_n/n (n=10)", "MC n=20", "1-Pd",
		},
		Notes: []string{
			"expected shape: every column lies within [max(0,1-H(Pd)) - eps, 1-Pd];",
			"the finite-block series decreases with n (block boundaries are sync side information)",
		},
	}
	samples := cfg.Symbols / 4
	if samples < 500 {
		samples = 500
	}
	for _, pd := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
		row := []string{f3(pd), f4(delcap.GallagerLowerBound(pd))}
		for _, n := range []int{4, 8, 10} {
			r, err := delcap.ExactUniformRate(n, pd)
			if err != nil {
				return Table{}, err
			}
			row = append(row, f4(r))
		}
		mc, err := delcap.MonteCarloUniformRate(20, pd, samples, rng.New(cfg.Seed+uint64(pd*1000)))
		if err != nil {
			return Table{}, err
		}
		row = append(row, f4(mc), f4(core.DeletionUpperBoundTrivial(pd)))
		t.Uses += int64(samples) * 20 // Monte-Carlo bits per row
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
