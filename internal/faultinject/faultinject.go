// Package faultinject provides composable fault-injection middleware
// over the per-use channel surface of the synchronization protocols.
//
// Every protocol in internal/syncproto runs against a channel whose
// Definition 1 parameters are stationary and known exactly to both
// parties. Real synchronization-error channels are neither: parameters
// drift, the medium goes away for whole windows, bystanders jam it,
// and shared state gets stuck. Each layer in this package wraps any
// channel.UseChannel (channel.DeletionInsertion, channel.Bursty, or
// another layer) and superimposes one hostile regime:
//
//   - Outage: windows during which every use is a deletion (Pd -> 1);
//   - Drift: extra deletion/insertion probabilities that random-walk
//     within a bound below 0.5;
//   - Jam: bursts during which insertions spike (Pi -> 0.5);
//   - Stuck: windows during which the delivered value is frozen at the
//     last delivered symbol (a stuck-at fault).
//
// Each layer's constructor takes its one magnitude (a window layer's
// long-run in-window fraction, the drift bound), plus the symbol width
// where it inserts symbols. Everything else about a layer, such as its
// mean window length, is a named constant beside it.
//
// All layers draw their randomness from explicit *rng.Source values,
// so a fault pattern is a pure function of its seed: experiments
// replay byte-identically regardless of worker count or schedule.
// Layers are not safe for concurrent use, matching the channels they
// wrap.
package faultinject

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/rng"
)

// Layer is a fault-injection middleware: a channel that also reports
// how often it overrode the wrapped channel's behaviour.
type Layer interface {
	channel.UseChannel
	// Injected returns the number of uses this layer overrode (forced
	// a deletion/insertion, froze a value, ...).
	Injected() int64
	// Name identifies the layer kind for diagnostics.
	Name() string
}

// gate is a two-state (in-window / out-of-window) Markov switch shared
// by the windowed fault layers. Window membership of the current use
// is decided before the transition to the next use, so the stationary
// in-window fraction is pEnter/(pEnter+pExit) and the mean window
// length is 1/pExit uses.
type gate struct {
	pEnter, pExit float64
	active        bool
	src           *rng.Source
}

// newGate builds a gate with the given long-run in-window fraction, in
// [0, 1), and mean window length in uses, one of the layers' constants.
func newGate(fraction, meanLength float64, src *rng.Source) (*gate, error) {
	if math.IsNaN(fraction) || fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("faultinject: window fraction %v out of [0,1)", fraction)
	}
	if src == nil {
		return nil, fmt.Errorf("faultinject: nil randomness source")
	}
	pExit := 1 / meanLength
	pEnter := 0.0
	if fraction > 0 {
		pEnter = fraction * pExit / (1 - fraction)
		if pEnter > 1 {
			pEnter = 1
		}
	}
	return &gate{pEnter: pEnter, pExit: pExit, src: src}, nil
}

// step reports whether the current use falls inside a window, then
// advances the switch.
func (g *gate) step() bool {
	cur := g.active
	if cur {
		if g.src.Bool(g.pExit) {
			g.active = false
		}
	} else if g.src.Bool(g.pEnter) {
		g.active = true
	}
	return cur
}
