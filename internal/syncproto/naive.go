package syncproto

import (
	"fmt"

	"repro/internal/channel"
)

// Naive is the strawman that motivates the whole paper: the sender
// pushes symbols with no feedback, no common events and no coding; the
// receiver assumes slot k of the received stream is message symbol k.
// A single unrepaired deletion or insertion shifts every later slot,
// so the per-slot mutual information collapses toward zero as the
// message grows — quantifying why non-synchronous channels cannot be
// treated as synchronous ones.
type Naive struct {
	ch channel.UseChannel
	n  int
}

// NewNaive returns the protocol over a per-use channel with n-bit
// symbols.
func NewNaive(ch channel.UseChannel, n int) (*Naive, error) {
	if err := checkChannel(ch, n); err != nil {
		return nil, err
	}
	return &Naive{ch: ch, n: n}, nil
}

// Run transmits the message once, with the receiver reading slots
// positionally. Result.Delivered counts the slots that have a
// positional counterpart; SkippedSymbols counts the deletion and
// insertion events of the channel's event trace, the misalignment the
// positional read suffers.
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
		switch e {
		case channel.EventInsert:
			res.SkippedSymbols++
		case channel.EventDelete:
			res.SkippedSymbols++
			res.SenderOps++
		default:
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
	return res, nil
}
