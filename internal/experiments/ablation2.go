package experiments

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

// A4Burstiness probes the robustness of the paper's i.i.d. estimates
// under Markov-modulated (bursty) non-synchrony: the counter protocol's
// long-run rate over a two-state channel is predicted by the bounds
// evaluated at the *stationary* parameters, because the protocol's
// feedback handles any deletion pattern and the per-use accounting
// depends only on long-run event fractions.
func A4Burstiness(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:    "A4",
		Title: "Ablation: bursty (Markov-modulated) non-synchrony vs i.i.d. estimates",
		Header: []string{
			"burst len", "stat.Pd", "stat.Pi", "C_perUse(stat)", "meas(bits/use)", "slotErr", "predErr",
		},
		Notes: []string{
			"expected shape: the i.i.d. per-use bound at the stationary parameters",
			"predicts the measured rate regardless of burst length (feedback absorbs bursts)",
		},
	}
	msg := randomMessage(cfg.Seed+501, cfg.Symbols, 4)
	// Vary burst length at (approximately) constant stationary rates:
	// scale both switch probabilities together.
	for _, scale := range []float64{1, 0.25, 0.05} {
		bp := channel.BurstParams{
			N:          4,
			Good:       channel.Params{Pd: 0.05, Pi: 0.02},
			Bad:        channel.Params{Pd: 0.5, Pi: 0.25},
			PGoodToBad: 0.05 * scale,
			PBadToGood: 0.2 * scale,
		}
		ch, err := channel.NewBursty(bp, rng.New(cfg.Seed+uint64(scale*100)))
		if err != nil {
			return Table{}, err
		}
		counter, err := syncproto.NewCounter(ch, bp.N)
		if err != nil {
			return Table{}, err
		}
		res, err := counter.Run(msg)
		if err != nil {
			return Table{}, err
		}
		t.Uses += int64(res.Uses)
		stat := bp.StationaryParams()
		bound, err := core.LowerBoundPerUse(stat)
		if err != nil {
			return Table{}, err
		}
		predErr := core.Alpha(bp.N) * stat.Pi / (1 - stat.Pd)
		perSlot := res.MSCInfoPerSlot(bp.N)
		meanBurst := 1 / (0.2 * scale) // mean bad-state dwell in uses
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", meanBurst),
			f3(stat.Pd), f3(stat.Pi), f3(bound),
			f3(res.ThroughputPerUse() * perSlot),
			f4(res.ErrorRate()), f4(predErr),
		})
	}
	return t, nil
}

// A5FeedbackDelay quantifies the mechanism overhead excluded from
// Theorem 3: stop-and-wait ARQ with feedback latency d achieves
// N(1-Pd)/(1+d) — the inherent (1-Pd) non-synchrony factor times the
// mechanism's own 1/(1+d).
func A5FeedbackDelay(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "A5",
		Title:  "Ablation: feedback latency overhead on top of Theorem 3",
		Header: []string{"delay", "predicted N(1-Pd)/(1+d)", "measured(bits/use)", "errors"},
		Notes: []string{
			"expected shape: measured matches prediction; the (1-Pd) capacity factor is",
			"inherent while the 1/(1+d) factor belongs to the mechanism (Section 4.4 remark)",
		},
	}
	p := channel.Params{N: 4, Pd: 0.2}
	capacity, err := core.FeedbackDeletionCapacity(p)
	if err != nil {
		return Table{}, err
	}
	msg := randomMessage(cfg.Seed+503, cfg.Symbols/2, 4)
	for _, delay := range []int{0, 1, 2, 4, 8} {
		ch, err := channel.NewDeletionInsertion(p, rng.New(cfg.Seed+uint64(delay)))
		if err != nil {
			return Table{}, err
		}
		arq, err := syncproto.NewARQ(ch, p.N, delay)
		if err != nil {
			return Table{}, err
		}
		res, err := arq.Run(msg)
		if err != nil {
			return Table{}, err
		}
		t.Uses += int64(res.Uses)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(delay), f4(capacity / float64(1+delay)), f4(res.InfoRatePerUse()),
			fmt.Sprint(res.SymbolErrors),
		})
	}
	return t, nil
}
