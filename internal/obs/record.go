package obs

import (
	"fmt"

	"repro/internal/channel"
)

// UseChannel is the per-use channel surface the recorder wraps and
// implements; it is structurally identical to syncproto.UseChannel and
// faultinject.UseChannel, so a recorder slots anywhere in a stack.
type UseChannel interface {
	Use(queued uint32) channel.Use
}

// UseCounts tallies Definition 1 events observed on a channel.
type UseCounts struct {
	// Transmits counts clean transmissions, Substitutes transmissions
	// delivered with a substitution error; Deletes and Inserts count
	// deletion and insertion events.
	Transmits, Substitutes, Deletes, Inserts int64
	// Injected counts uses a fault-injection layer overrode (0 when no
	// fault stack was attached).
	Injected int64
}

// Uses returns the total number of channel uses observed.
func (c UseCounts) Uses() int64 {
	return c.Transmits + c.Substitutes + c.Deletes + c.Inserts
}

// Add accumulates other into c.
func (c *UseCounts) Add(other UseCounts) {
	c.Transmits += other.Transmits
	c.Substitutes += other.Substitutes
	c.Deletes += other.Deletes
	c.Inserts += other.Inserts
	c.Injected += other.Injected
}

// ChannelRecorder wraps a per-use channel, keeping live UseCounts and
// (when a tracer is attached) emitting one trace event per use. It is
// a transparent pass-through: the wrapped channel's randomness and
// outcomes are untouched, so wrapping never changes simulation
// results.
//
// Like the channels it wraps, a recorder serves one goroutine.
type ChannelRecorder struct {
	inner    UseChannel
	tr       *Tracer
	injected func() int64 // cumulative injection count of the stack, nil = none
	lastInj  int64
	uses     int64
	counts   UseCounts
}

// NewChannelRecorder wraps inner. tr may be nil (count-only mode).
// injected, when non-nil, is polled after every use to attribute
// fault-layer overrides (pass faultinject's Stack.Injected).
func NewChannelRecorder(inner UseChannel, tr *Tracer, injected func() int64) (*ChannelRecorder, error) {
	if inner == nil {
		return nil, fmt.Errorf("obs: nil inner channel")
	}
	r := &ChannelRecorder{inner: inner, tr: tr, injected: injected}
	if injected != nil {
		r.lastInj = injected()
	}
	return r, nil
}

// Use forwards one use, recording its outcome and emitting its trace
// event.
func (r *ChannelRecorder) Use(queued uint32) channel.Use {
	u := r.inner.Use(queued)
	r.uses++
	switch u.Kind {
	case channel.EventTransmit:
		r.counts.Transmits++
	case channel.EventSubstitute:
		r.counts.Substitutes++
	case channel.EventDelete:
		r.counts.Deletes++
	case channel.EventInsert:
		r.counts.Inserts++
	}
	inj := false
	if r.injected != nil {
		// One per overridden use, however many layers overrode it:
		// the count ReadTrace recovers from the per-use flags.
		if cur := r.injected(); cur != r.lastInj {
			inj = true
			r.counts.Injected++
			r.lastInj = cur
		}
	}
	if r.tr != nil {
		r.tr.Use(r.uses, u.Kind.String(), queued, u.Delivered, u.Kind == channel.EventDelete, inj)
	}
	return u
}

// Uses returns the number of uses served through the recorder.
func (r *ChannelRecorder) Uses() int64 { return r.uses }

// Counts returns the live event tallies.
func (r *ChannelRecorder) Counts() UseCounts { return r.counts }

// Estimate returns the live (Pd, Pi, Ps) estimate from the tallies so
// far, without needing a recorded trace.
func (r *ChannelRecorder) Estimate() Estimate { return r.counts.Estimate() }
