package syncproto

import (
	"fmt"

	"repro/internal/channel"
)

// ARQ is the Theorem 3 protocol: over a deletion channel with perfect
// feedback, the receiver acknowledges every received symbol and the
// sender resends until acknowledged, so no drop-outs ever reach the
// application and the erasure-channel capacity N(1-Pd) is achieved.
//
// A feedback delay quantifies the mechanism-specific overhead the
// paper's analysis deliberately excludes ("the capacity degradation
// modeled in our method ... does not include any specific overhead
// introduced by such mechanisms"): each acknowledgement (or its
// absence) arrives only after delay further channel uses, during which
// the sender idles. Expected cost per symbol is (1+delay)/(1-Pd) uses,
// so the achieved rate is N(1-Pd)/(1+delay): the inherent (1-Pd)
// factor times the mechanism's own 1/(1+delay). Delay 0 is Theorem 3.
type ARQ struct {
	ch    channel.UseChannel
	n     int
	delay int
}

// NewARQ returns the protocol over a per-use channel with n-bit
// symbols and the given feedback delay in channel uses. The rate
// N(1-Pd)/(1+delay) holds on a deletion-only, noiseless channel
// (Theorem 3's Pi = Ps = 0), which the program's entry points ensure.
// Over a channel that inserts or substitutes anyway, such as a
// fault-injected stack, the protocol stays safe: any event other than a
// clean transmission of the queued symbol triggers a resend, and
// inserted symbols are discarded by the idealized feedback.
func NewARQ(ch channel.UseChannel, n, delay int) (*ARQ, error) {
	if err := checkChannel(ch, n); err != nil {
		return nil, err
	}
	if delay < 0 {
		return nil, fmt.Errorf("syncproto: negative feedback delay %d", delay)
	}
	return &ARQ{ch: ch, n: n, delay: delay}, nil
}

// Run transmits the message and returns the run accounting. Every
// message symbol is delivered exactly once, in order, without error;
// the cost appears as extra channel uses for resends and, with a
// feedback delay, as idle uses.
func (a *ARQ) Run(msg []uint32) (Result, error) {
	if !validSymbols(msg, a.n) {
		return Result{}, fmt.Errorf("syncproto: message contains symbols outside the %d-bit alphabet", a.n)
	}
	res := Result{MessageSymbols: len(msg)}
	received := make([]uint32, 0, len(msg))
	for _, sym := range msg {
		for {
			res.Uses++
			res.SenderOps++
			u := a.ch.Use(sym)
			// The sender idles while the acknowledgement (or its
			// absence) propagates back.
			res.Uses += a.delay
			res.SenderOps += a.delay // wait/check operations
			if u.Kind == channel.EventTransmit {
				received = append(received, u.Delivered)
				break
			}
			// Deletion: feedback says not received; resend. Insertion
			// or substitution (possible only over a hostile wrapped
			// channel): feedback flags the stray symbol, the receiver
			// discards it, and the sender resends.
		}
	}
	if err := measureSlots(&res, msg, received, a.n); err != nil {
		return Result{}, err
	}
	return res, nil
}

// checkChannel validates the channel and symbol width every
// channel-backed protocol takes.
func checkChannel(ch channel.UseChannel, n int) error {
	if ch == nil {
		return fmt.Errorf("syncproto: nil channel")
	}
	if n < 1 || n > 16 {
		return fmt.Errorf("syncproto: symbol width %d out of [1,16]", n)
	}
	return nil
}

// validSymbols reports whether all symbols fit the n-bit alphabet.
func validSymbols(msg []uint32, n int) bool {
	if n >= 32 {
		return true
	}
	limit := uint32(1) << uint(n)
	for _, s := range msg {
		if s >= limit {
			return false
		}
	}
	return true
}
