// Quickstart: estimate the capacity of a non-synchronous covert channel
// and verify the bound by running the Theorem 3 feedback protocol over
// a simulated deletion channel.
package main

import (
	"fmt"
	"log"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A covert channel carrying 4-bit symbols that loses 25% of them
	// to scheduling non-synchrony (Definition 1 with Pd = 0.25).
	params := channel.Params{N: 4, Pd: 0.25}

	// Analytic estimates (Theorems 1-5).
	bounds, err := core.ComputeBounds(params)
	if err != nil {
		return err
	}
	fmt.Printf("upper bound N(1-Pd):      %.4f bits/use\n", bounds.Upper)
	fmt.Printf("lower bound (Theorem 5):  %.4f bits/use\n", bounds.LowerT5)

	// A traditional synchronous analysis would report N = 4 bits/use;
	// the paper's correction:
	corrected, err := core.Degrade(4, params.Pd)
	if err != nil {
		return err
	}
	fmt.Printf("corrected traditional:    %.4f bits/use\n\n", corrected)

	// Verify by simulation: ARQ with perfect feedback achieves the
	// bound (Theorem 3).
	ch, err := channel.NewDeletionInsertion(params, rng.New(42))
	if err != nil {
		return err
	}
	arq, err := syncproto.NewARQ(ch, params.N, 0)
	if err != nil {
		return err
	}
	msg := make([]uint32, 50000)
	src := rng.New(7)
	for i := range msg {
		msg[i] = src.Symbol(params.N)
	}
	res, err := arq.Run(msg)
	if err != nil {
		return err
	}
	fmt.Printf("simulated ARQ rate:       %.4f bits/use over %d uses (errors: %d)\n",
		res.InfoRatePerUse(), res.Uses, res.SymbolErrors)
	return nil
}
