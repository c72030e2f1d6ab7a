package channel

import (
	"fmt"

	"repro/internal/rng"
)

// BurstParams describes a two-state (Gilbert–Elliott style) modulated
// deletion–insertion channel. Real scheduler interference is bursty —
// a long-running bystander steals many consecutive quanta — so the
// Definition 1 event probabilities switch between a Good and a Bad
// state according to a two-state Markov chain. This is an extension
// beyond the paper's i.i.d. model used to probe the robustness of its
// estimates (ablation A4).
type BurstParams struct {
	// N is the symbol width shared by both states.
	N int
	// Good and Bad are the per-state event probabilities.
	Good, Bad Params
	// PGoodToBad and PBadToGood are the per-use switch probabilities.
	PGoodToBad, PBadToGood float64
}

// Validate checks the configuration.
func (p BurstParams) Validate() error {
	g, b := p.Good, p.Bad
	g.N, b.N = p.N, p.N
	if err := g.Validate(); err != nil {
		return fmt.Errorf("channel: good state: %w", err)
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("channel: bad state: %w", err)
	}
	if p.PGoodToBad < 0 || p.PGoodToBad > 1 {
		return fmt.Errorf("channel: PGoodToBad %v out of [0,1]", p.PGoodToBad)
	}
	if p.PBadToGood < 0 || p.PBadToGood > 1 {
		return fmt.Errorf("channel: PBadToGood %v out of [0,1]", p.PBadToGood)
	}
	if p.PGoodToBad+p.PBadToGood == 0 {
		return fmt.Errorf("channel: chain never switches states")
	}
	return nil
}

// StationaryParams returns the long-run average Definition 1
// parameters: the i.i.d. channel the paper's estimates would see.
func (p BurstParams) StationaryParams() Params {
	piBad := p.PGoodToBad / (p.PGoodToBad + p.PBadToGood)
	piGood := 1 - piBad
	return Params{
		N:  p.N,
		Pd: piGood*p.Good.Pd + piBad*p.Bad.Pd,
		Pi: piGood*p.Good.Pi + piBad*p.Bad.Pi,
		Ps: piGood*p.Good.Ps + piBad*p.Bad.Ps,
	}
}

// Bursty is the two-state modulated channel.
type Bursty struct {
	params BurstParams
	states [2]*DeletionInsertion
	inBad  bool
	src    *rng.Source
}

// NewBursty returns the channel, starting in the Good state.
func NewBursty(params BurstParams, src *rng.Source) (*Bursty, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil randomness source")
	}
	good := params.Good
	good.N = params.N
	bad := params.Bad
	bad.N = params.N
	gCh, err := NewDeletionInsertion(good, src.Split())
	if err != nil {
		return nil, err
	}
	bCh, err := NewDeletionInsertion(bad, src.Split())
	if err != nil {
		return nil, err
	}
	return &Bursty{params: params, states: [2]*DeletionInsertion{gCh, bCh}, src: src}, nil
}

// Params returns the configuration.
func (c *Bursty) Params() BurstParams { return c.params }

// InBadState reports the current modulation state (useful for tests).
func (c *Bursty) InBadState() bool { return c.inBad }

// Use performs one channel use in the current state, then lets the
// modulating chain switch.
func (c *Bursty) Use(queued uint32) Use {
	state := c.states[0]
	if c.inBad {
		state = c.states[1]
	}
	u := state.Use(queued)
	if c.inBad {
		if c.src.Bool(c.params.PBadToGood) {
			c.inBad = false
		}
	} else if c.src.Bool(c.params.PGoodToBad) {
		c.inBad = true
	}
	return u
}

// Transmit pushes the whole input through the channel, one Use per
// channel use (see TransmitUses).
func (c *Bursty) Transmit(input []uint32) (received []uint32, trace []EventKind) {
	return TransmitUses(c, input)
}
