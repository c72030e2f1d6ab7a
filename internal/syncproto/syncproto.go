// Package syncproto implements the synchronization mechanisms the paper
// studies for non-synchronous covert channels (Section 4.2):
//
//   - the resend-until-acknowledged ARQ protocol of Theorem 3, which
//     achieves the erasure-channel capacity of a deletion channel with
//     perfect feedback;
//   - the counter protocol of Theorem 5 / Appendix A, which converts a
//     deletion–insertion channel with perfect feedback into the M-ary
//     symmetric "converted channel" of Figure 5;
//   - the two-variable synchronization protocol of Figure 1, which
//     trades channel uses for perfectly synchronous transfer;
//   - the common-event-source mechanism of Figures 3(b) and 4, shown by
//     the paper to be no better than feedback.
//
// Every protocol runs over the Definition 1 channel model with
// deterministic randomness and reports enough accounting (channel uses,
// sender operations, delivered slots, errors, empirical mutual
// information) to compare measured rates against the analytic bounds in
// package core.
package syncproto

import (
	"fmt"

	"repro/internal/infotheory"
	"repro/internal/stats"
)

// Result is the accounting of one protocol run.
type Result struct {
	// MessageSymbols is the length of the transmitted message.
	MessageSymbols int
	// Uses is the number of channel uses consumed (Definition 1 events).
	Uses int
	// SenderOps is the number of sender operations: actual sends plus
	// wait/check operations. Insertions happen without sender action.
	SenderOps int
	// Delivered is the number of message positions resolved at the
	// receiver (for slot-aligned protocols, the received slot count).
	Delivered int
	// SymbolErrors is the number of delivered positions whose symbol
	// differs from the message symbol at that position.
	SymbolErrors int
	// SkippedSymbols counts message symbols the counter protocol
	// skipped to re-synchronize after insertions, and the naive
	// protocol's deletion and insertion events (always 0 for ARQ).
	SkippedSymbols int
	// MutualInfoPerSlot is the empirical mutual information in bits
	// between the message symbol and the delivered symbol at aligned
	// positions (0 if not measured).
	MutualInfoPerSlot float64
}

// ThroughputPerUse returns delivered symbols per channel use.
func (r Result) ThroughputPerUse() float64 {
	if r.Uses == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Uses)
}

// InfoRatePerUse returns the measured information rate in bits per
// channel use: empirical per-slot mutual information times delivered
// slots per use. This is the quantity the paper's bounds constrain.
func (r Result) InfoRatePerUse() float64 {
	return r.ThroughputPerUse() * r.MutualInfoPerSlot
}

// InfoRatePerSenderOp returns the measured information rate in bits per
// sender operation, the normalization used by the paper's Theorem 5
// coefficient (1-Pd)/(1-Pi) (see DESIGN.md).
func (r Result) InfoRatePerSenderOp() float64 {
	if r.SenderOps == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.SenderOps) * r.MutualInfoPerSlot
}

// MSCInfoPerSlot returns the per-slot information implied by the
// measured slot error rate under the converted channel's M-ary
// symmetric model (Figure 5). Unlike the plug-in estimate in
// MutualInfoPerSlot, this closed form stays unbiased for large symbol
// alphabets, where the empirical joint distribution would need far
// more samples than a protocol run provides.
func (r Result) MSCInfoPerSlot(n int) float64 {
	return infotheory.MSCCapacity(1<<uint(n), r.ErrorRate())
}

// ErrorRate returns the fraction of delivered positions in error.
func (r Result) ErrorRate() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.SymbolErrors) / float64(r.Delivered)
}

// measureSlots fills the delivered/error/MI fields by comparing
// position-aligned message and received slices over an n-bit alphabet.
func measureSlots(res *Result, msg, received []uint32, n int) error {
	if len(received) > len(msg) {
		return fmt.Errorf("syncproto: %d received slots exceed %d message symbols", len(received), len(msg))
	}
	jc, err := stats.NewJointCounter(1<<uint(n), 1<<uint(n))
	if err != nil {
		return err
	}
	res.Delivered = len(received)
	for k, got := range received {
		if got != msg[k] {
			res.SymbolErrors++
		}
		if err := jc.Add(int(msg[k]), int(got)); err != nil {
			return err
		}
	}
	res.MutualInfoPerSlot = jc.MutualInformation()
	return nil
}
