package syncproto

import (
	"fmt"

	"repro/internal/channel"
)

// Counter is the Appendix A protocol proving Theorem 5. Both parties
// keep counters: the receiver counts symbols received and reports the
// count over the perfect feedback path; the sender counts message
// symbols sent or skipped. On each opportunity the sender compares the
// counts:
//
//   - receiver behind: the last symbol was deleted; wait and resend;
//   - counts equal: send the next message symbol;
//   - receiver ahead: symbols were inserted; skip message symbols so the
//     next sent symbol lands at its correct position in the received
//     stream.
//
// The result is a synchronous stream in which position k holds the k-th
// message symbol unless an insertion filled it (wrong with probability
// α = 1 - 2^-N), i.e. exactly the Figure 5 converted channel.
type Counter struct {
	ch channel.UseChannel
	n  int
}

// NewCounter returns the protocol over a per-use channel with n-bit
// symbols: any Pd and Pi, with Ps adding ordinary substitutions on top
// of the converted channel's insertion noise. The channel may be
// bursty or fault-injected.
func NewCounter(ch channel.UseChannel, n int) (*Counter, error) {
	if err := checkChannel(ch, n); err != nil {
		return nil, err
	}
	return &Counter{ch: ch, n: n}, nil
}

// Run transmits the message and returns the run accounting. The
// receiver's slot k estimate of message symbol k is received[k]; slots
// filled by insertions (or hit by substitutions) count as symbol
// errors. The run ends when every message position is resolved
// (delivered or skipped past).
func (c *Counter) Run(msg []uint32) (Result, error) {
	if !validSymbols(msg, c.n) {
		return Result{}, fmt.Errorf("syncproto: message contains symbols outside the %d-bit alphabet", c.n)
	}
	res := Result{MessageSymbols: len(msg)}
	received := make([]uint32, 0, len(msg))
	sent := 0 // sender counter: message symbols sent or skipped
	for len(received) < len(msg) {
		// Sender opportunity: perfect feedback gives it len(received).
		if sent < len(received) {
			// Insertions ran ahead; skip to re-synchronize.
			res.SkippedSymbols += len(received) - sent
			sent = len(received)
		}
		res.Uses++
		res.SenderOps++
		u := c.ch.Use(msg[sent])
		switch u.Kind {
		case channel.EventDelete:
			// Lost; the counters now disagree and the sender resends.
		case channel.EventInsert:
			// The receiver believes a symbol arrived. The sender was
			// not involved, so this use cost it only the check it
			// performs anyway; the dedicated send did not happen.
			res.SenderOps--
			received = append(received, u.Delivered)
		default: // transmit or substitute
			received = append(received, u.Delivered)
			sent++
		}
	}
	if err := measureSlots(&res, msg, received, c.n); err != nil {
		return Result{}, err
	}
	return res, nil
}
