package faultinject

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/rng"
)

// outageMeanLength is the mean outage window length in uses: runs of
// tens of deletions, which an i.i.d. Pd makes vanishingly rare, yet
// short against a supervised attempt's deadline of 2048 uses.
const outageMeanLength = 50

// Outage is the total-loss fault layer: while a window is open the
// channel behaves as if Pd = 1, deleting every queued symbol without
// consulting the wrapped channel.
type Outage struct {
	inner    channel.UseChannel
	gate     *gate
	injected int64
}

// NewOutage wraps inner with outage windows drawn from src, covering
// the long-run fraction of uses in [0, 1).
func NewOutage(inner channel.UseChannel, fraction float64, src *rng.Source) (*Outage, error) {
	if inner == nil {
		return nil, fmt.Errorf("faultinject: nil inner channel")
	}
	g, err := newGate(fraction, outageMeanLength, src)
	if err != nil {
		return nil, fmt.Errorf("faultinject: outage: %w", err)
	}
	return &Outage{inner: inner, gate: g}, nil
}

// Use deletes the queued symbol during an outage window and defers to
// the wrapped channel otherwise.
func (o *Outage) Use(queued uint32) channel.Use {
	if o.gate.step() {
		o.injected++
		return channel.Use{Kind: channel.EventDelete, Consumed: true}
	}
	return o.inner.Use(queued)
}

// Injected returns the number of forced deletions.
func (o *Outage) Injected() int64 { return o.injected }

// Name identifies the layer.
func (o *Outage) Name() string { return "outage" }
