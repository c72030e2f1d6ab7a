package faultinject

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/rng"
)

// Jamming bursts: a bystander floods the medium for jamMeanLength uses
// on average, and each use inside a burst inserts with probability
// jamPi, far above any nominal Pi, while the wrapped channel still
// serves the rest of the burst.
const (
	jamMeanLength = 20
	jamPi         = 0.5
)

// Jam is the insertion-burst fault layer.
type Jam struct {
	inner    channel.UseChannel
	n        int
	gate     *gate
	src      *rng.Source
	injected int64
}

// NewJam wraps inner with jamming bursts drawn from src, covering the
// long-run fraction of uses in [0, 1). n is the symbol width of the
// inserted symbols.
func NewJam(inner channel.UseChannel, fraction float64, n int, src *rng.Source) (*Jam, error) {
	if inner == nil {
		return nil, fmt.Errorf("faultinject: nil inner channel")
	}
	if src == nil {
		return nil, fmt.Errorf("faultinject: nil randomness source")
	}
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("faultinject: jam symbol width %d out of [1,16]", n)
	}
	g, err := newGate(fraction, jamMeanLength, src.Split())
	if err != nil {
		return nil, fmt.Errorf("faultinject: jam: %w", err)
	}
	return &Jam{inner: inner, n: n, gate: g, src: src}, nil
}

// Use inserts a uniform garbage symbol with probability jamPi during
// a burst and defers to the wrapped channel otherwise. Insertions do
// not consume the queued symbol, matching Definition 1.
func (j *Jam) Use(queued uint32) channel.Use {
	if j.gate.step() && j.src.Bool(jamPi) {
		j.injected++
		return channel.Use{Kind: channel.EventInsert, Delivered: j.src.Symbol(j.n)}
	}
	return j.inner.Use(queued)
}

// Injected returns the number of forced insertions.
func (j *Jam) Injected() int64 { return j.injected }

// Name identifies the layer.
func (j *Jam) Name() string { return "jam" }
