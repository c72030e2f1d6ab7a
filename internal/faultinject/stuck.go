package faultinject

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/rng"
)

// stuckMeanLength is the mean stuck window length in uses: a wedged
// value outlives many consecutive symbols.
const stuckMeanLength = 20

// Stuck is the stuck-at fault layer: the shared medium keeps reporting
// the last value it delivered (a wedged shared variable or a saturated
// sensor), regardless of what the sender queues. The underlying event
// process (deletions, insertions, consumption) is untouched; only the
// delivered value is frozen, so a transmit whose frozen value differs
// from the queued symbol surfaces as a substitution.
type Stuck struct {
	inner    channel.UseChannel
	gate     *gate
	held     uint32
	haveHeld bool
	injected int64
}

// NewStuck wraps inner with stuck-at windows drawn from src, covering
// the long-run fraction of uses in [0, 1).
func NewStuck(inner channel.UseChannel, fraction float64, src *rng.Source) (*Stuck, error) {
	if inner == nil {
		return nil, fmt.Errorf("faultinject: nil inner channel")
	}
	g, err := newGate(fraction, stuckMeanLength, src)
	if err != nil {
		return nil, fmt.Errorf("faultinject: stuck: %w", err)
	}
	return &Stuck{inner: inner, gate: g}, nil
}

// Use passes the use through the wrapped channel; inside a stuck
// window any delivered value is replaced by the held value.
func (s *Stuck) Use(queued uint32) channel.Use {
	stuck := s.gate.step()
	u := s.inner.Use(queued)
	if u.Kind == channel.EventDelete {
		return u
	}
	if !stuck || !s.haveHeld {
		s.held, s.haveHeld = u.Delivered, true
		return u
	}
	if u.Delivered != s.held {
		s.injected++
	}
	u.Delivered = s.held
	// Re-classify transmissions: a frozen value differing from the
	// queued symbol is a substitution, and a substitution frozen back
	// onto the queued symbol is a clean transmit.
	if u.Kind == channel.EventTransmit && s.held != queued {
		u.Kind = channel.EventSubstitute
	} else if u.Kind == channel.EventSubstitute && s.held == queued {
		u.Kind = channel.EventTransmit
	}
	return u
}

// Injected returns the number of delivered values the layer overrode.
func (s *Stuck) Injected() int64 { return s.injected }

// Name identifies the layer.
func (s *Stuck) Name() string { return "stuck" }
