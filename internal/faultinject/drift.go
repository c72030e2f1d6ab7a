package faultinject

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/rng"
)

// Drift bounds: the extra Pd and Pi each walk in [0, bound], and
// their sum, at most 2·bound, must stay below 1, so a bound lies in
// (0, driftLimit). Each use moves each walk by bound/driftSteps: the
// walk crosses its range in a few hundred uses, slow against a
// protocol run.
const (
	driftLimit = 0.5
	driftSteps = 25
)

// Drift is the parameter-drift fault layer: extra deletion and
// insertion probabilities that random-walk within [0, bound],
// reflecting at the ends. The wrapped channel keeps its own
// parameters; the layer's drifting probabilities are superimposed, so
// the composed channel's effective Pd(t)/Pi(t) wander around the
// nominal values both parties believe in.
type Drift struct {
	inner            channel.UseChannel
	n                int
	bound, step      float64
	extraPd, extraPi float64
	src              *rng.Source
	injected         int64
}

// NewDrift wraps inner with random-walking extra deletion and insertion
// probabilities, each bounded by bound in (0, 0.5). Both walks start
// at half the bound. n is the symbol width of the inserted symbols.
func NewDrift(inner channel.UseChannel, bound float64, n int, src *rng.Source) (*Drift, error) {
	if inner == nil {
		return nil, fmt.Errorf("faultinject: nil inner channel")
	}
	if src == nil {
		return nil, fmt.Errorf("faultinject: nil randomness source")
	}
	if math.IsNaN(bound) || bound <= 0 || bound >= driftLimit {
		return nil, fmt.Errorf("faultinject: drift bound %v out of (0,%v)", bound, driftLimit)
	}
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("faultinject: drift symbol width %d out of [1,16]", n)
	}
	return &Drift{
		inner:   inner,
		n:       n,
		bound:   bound,
		step:    bound / driftSteps,
		extraPd: bound / 2,
		extraPi: bound / 2,
		src:     src,
	}, nil
}

// walk advances one random-walk coordinate, reflecting at [0, bound].
func (d *Drift) walk(x float64) float64 {
	if d.src.Bool(0.5) {
		x += d.step
	} else {
		x -= d.step
	}
	if x < 0 {
		x = -x
	}
	if x > d.bound {
		x = 2*d.bound - x
	}
	return x
}

// Use applies the current extra probabilities, then advances the walk.
func (d *Drift) Use(queued uint32) channel.Use {
	u := d.src.Float64()
	var out channel.Use
	switch {
	case u < d.extraPd:
		d.injected++
		out = channel.Use{Kind: channel.EventDelete, Consumed: true}
	case u < d.extraPd+d.extraPi:
		d.injected++
		out = channel.Use{Kind: channel.EventInsert, Delivered: d.src.Symbol(d.n)}
	default:
		out = d.inner.Use(queued)
	}
	d.extraPd = d.walk(d.extraPd)
	d.extraPi = d.walk(d.extraPi)
	return out
}

// Injected returns the number of forced deletions and insertions.
func (d *Drift) Injected() int64 { return d.injected }

// Name identifies the layer.
func (d *Drift) Name() string { return "drift" }

// Extra returns the walk's current extra probabilities (for tests).
func (d *Drift) Extra() (extraPd, extraPi float64) { return d.extraPd, d.extraPi }
