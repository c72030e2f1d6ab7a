package syncproto_test

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

// ExampleARQ runs the Theorem 3 protocol over a deletion channel and
// shows the achieved rate meeting N(1-Pd).
func ExampleARQ() {
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4, Pd: 0.25}, rng.New(42))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	arq, err := syncproto.NewARQ(ch, 4, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	src := rng.New(7)
	msg := make([]uint32, 100000)
	for i := range msg {
		msg[i] = src.Symbol(4)
	}
	res, err := arq.Run(msg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("errors: %d\n", res.SymbolErrors)
	fmt.Printf("rate:   %.2f bits/use (capacity %.2f)\n", res.InfoRatePerUse(), 4*(1-0.25))
	// Output:
	// errors: 0
	// rate:   3.00 bits/use (capacity 3.00)
}
