package syncproto

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/stats"
)

// Naive is the strawman that motivates the whole paper: the sender
// pushes symbols with no feedback, no common events and no coding; the
// receiver assumes slot k of the received stream is message symbol k.
// A single unrepaired deletion or insertion shifts every later slot,
// so the per-slot mutual information collapses toward zero as the
// message grows — quantifying why non-synchronous channels cannot be
// treated as synchronous ones.
type Naive struct {
	ch UseChannel
	n  int
}

// NewNaive returns the protocol bound to a deletion–insertion channel.
func NewNaive(ch *channel.DeletionInsertion) (*Naive, error) {
	if ch == nil {
		return nil, fmt.Errorf("syncproto: nil channel")
	}
	return &Naive{ch: ch, n: ch.Params().N}, nil
}

// NewNaiveOver returns the protocol over any per-use channel with
// n-bit symbols (for example a fault-injected stack).
func NewNaiveOver(ch UseChannel, n int) (*Naive, error) {
	if ch == nil {
		return nil, fmt.Errorf("syncproto: nil channel")
	}
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("syncproto: symbol width %d out of [1,16]", n)
	}
	return &Naive{ch: ch, n: n}, nil
}

// Run transmits the message once, with the receiver reading slots
// positionally. Result.Delivered counts the slots that have a
// positional counterpart; alignment-based deletion/insertion counts go
// to SkippedSymbols via the edit-distance trace for diagnostics.
func (p *Naive) Run(msg []uint32) (Result, error) {
	if !validSymbols(msg, p.n) {
		return Result{}, fmt.Errorf("syncproto: message contains symbols outside the %d-bit alphabet", p.n)
	}
	received, trace := channel.TransmitUses(p.ch, msg)
	res := Result{
		MessageSymbols: len(msg),
		Uses:           len(trace),
	}
	for _, e := range trace {
		if e != channel.EventInsert {
			res.SenderOps++
		}
	}
	// Positional comparison over the overlapping prefix.
	overlap := received
	if len(overlap) > len(msg) {
		overlap = overlap[:len(msg)]
	}
	if err := measureSlots(&res, msg, overlap, p.n); err != nil {
		return Result{}, err
	}
	// Diagnostics: how much of the damage is pure misalignment.
	counts := stats.Align(msg, received)
	res.SkippedSymbols = counts.Deletions + counts.Insertions
	return res, nil
}
