// Package channel implements the channel models of the paper: the
// deletion–insertion channel of Definition 1, its binary wrapper and
// bursty extension, and the symbol erasure channel whose capacity
// N(1-Pd) is the Theorem 1 bound. Definition 2's extended erasure
// channel is the analytic device of that proof and is not simulated.
//
// A channel operates on symbols of N bits (alphabet size 2^N). The
// deletion–insertion channel follows Definition 1 exactly: each time the
// channel is used, with probability Pd the next queued symbol is
// deleted, with probability Pi an extra symbol is inserted, and with
// probability Pt = 1-Pd-Pi the next queued symbol is transmitted,
// suffering a substitution error with probability Ps.
//
// Two interfaces are provided: a whole-sequence Transmit for coding
// experiments, and a per-use Use for the interactive synchronization
// protocols of Section 4.2 (which must observe feedback between uses).
package channel

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// EventKind classifies one channel use per Definition 1.
type EventKind int

// Channel use outcomes. A substitution is a transmission whose delivered
// symbol differs from the queued symbol.
const (
	EventTransmit EventKind = iota + 1
	EventSubstitute
	EventDelete
	EventInsert
)

// String returns a single-letter code for the event.
func (k EventKind) String() string {
	switch k {
	case EventTransmit:
		return "T"
	case EventSubstitute:
		return "S"
	case EventDelete:
		return "D"
	case EventInsert:
		return "I"
	default:
		return "?"
	}
}

// Params holds the Definition 1 channel parameters.
type Params struct {
	// N is the number of bits per symbol (1 <= N <= 16 here; the
	// alphabet must stay enumerable for exact analyses).
	N int
	// Pd, Pi are the deletion and insertion probabilities. The
	// transmission probability is Pt = 1 - Pd - Pi.
	Pd, Pi float64
	// Ps is the substitution probability of a transmitted symbol.
	Ps float64
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if p.N < 1 || p.N > 16 {
		return fmt.Errorf("channel: symbol width N = %d out of [1,16]", p.N)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{{"Pd", p.Pd}, {"Pi", p.Pi}, {"Ps", p.Ps}} {
		if math.IsNaN(v.val) || v.val < 0 || v.val > 1 {
			return fmt.Errorf("channel: %s = %v out of [0,1]", v.name, v.val)
		}
	}
	if p.Pd+p.Pi > 1 {
		return fmt.Errorf("channel: Pd + Pi = %v exceeds 1", p.Pd+p.Pi)
	}
	if p.Pi == 1 {
		// Pt = Pd = 0: no use can ever consume a queued symbol, so
		// Transmit would insert forever without terminating.
		return fmt.Errorf("channel: Pi = 1 never consumes input")
	}
	return nil
}

// Pt returns the transmission probability 1 - Pd - Pi.
func (p Params) Pt() float64 { return 1 - p.Pd - p.Pi }

// M returns the alphabet size 2^N.
func (p Params) M() int { return 1 << uint(p.N) }

// Use is the outcome of one channel use.
type Use struct {
	// Kind is the Definition 1 event that occurred.
	Kind EventKind
	// Delivered is the symbol the receiver observed; valid only when
	// Kind is EventTransmit, EventSubstitute or EventInsert.
	Delivered uint32
	// Consumed reports whether the queued symbol was consumed
	// (deletions and transmissions consume; insertions do not).
	Consumed bool
}

// DeletionInsertion is the paper's Definition 1 channel.
type DeletionInsertion struct {
	params Params
	src    *rng.Source
}

// NewDeletionInsertion returns a channel with the given parameters,
// drawing randomness from src.
func NewDeletionInsertion(params Params, src *rng.Source) (*DeletionInsertion, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil randomness source")
	}
	return &DeletionInsertion{params: params, src: src}, nil
}

// Params returns the channel parameters.
func (c *DeletionInsertion) Params() Params { return c.params }

// Use performs one channel use with the given queued symbol and returns
// the outcome. The caller owns queue semantics: on a consumed outcome
// the caller advances (or, in an ARQ protocol, chooses to resend).
func (c *DeletionInsertion) Use(queued uint32) Use {
	u := c.src.Float64()
	switch {
	case u < c.params.Pd:
		return Use{Kind: EventDelete, Consumed: true}
	case u < c.params.Pd+c.params.Pi:
		return Use{Kind: EventInsert, Delivered: c.src.Symbol(c.params.N)}
	default:
		if c.src.Bool(c.params.Ps) {
			// Substitute with a uniformly chosen different symbol.
			delta := 1 + c.src.Intn(c.params.M()-1)
			sub := (queued + uint32(delta)) % uint32(c.params.M())
			return Use{Kind: EventSubstitute, Delivered: sub, Consumed: true}
		}
		return Use{Kind: EventTransmit, Delivered: queued, Consumed: true}
	}
}

// Transmit pushes the whole input sequence through the channel and
// returns the received sequence together with the per-use event trace.
// The channel is used until every input symbol has been consumed
// (delivered or deleted); insertions are interleaved per Definition 1.
//
// Transmit runs an integer-threshold fast path that draws the identical
// random stream as the per-use path (see rng.ProbThreshold), so received
// symbols, traces and subsequent RNG state are byte-identical to
// TransmitReference at any seed. To observe each use, transmit through
// a wrapper with TransmitUses instead.
func (c *DeletionInsertion) Transmit(input []uint32) (received []uint32, trace []EventKind) {
	var (
		src     = c.src
		tDel    = rng.ProbThreshold(c.params.Pd)
		tDelIns = rng.ProbThreshold(c.params.Pd + c.params.Pi)
		psZero  = c.params.Ps <= 0
		psOne   = c.params.Ps >= 1
		tSub    = rng.ProbThreshold(c.params.Ps)
		m       = uint64(c.params.M())
		mask    = uint32(c.params.M() - 1)
		shift   = 64 - uint(c.params.N)
	)
	received = make([]uint32, 0, len(input))
	trace = make([]EventKind, 0, len(input)+4)
	for i := 0; i < len(input); {
		u := src.Uint64() >> 11
		if u < tDel {
			trace = append(trace, EventDelete)
			i++
			continue
		}
		if u < tDelIns {
			received = append(received, uint32(src.Uint64()>>shift))
			trace = append(trace, EventInsert)
			continue
		}
		sub := false
		if !psZero {
			sub = psOne || src.Uint64()>>11 < tSub
		}
		if sub {
			delta := 1 + uint32(src.Uint64n(m-1))
			received = append(received, (input[i]+delta)&mask)
			trace = append(trace, EventSubstitute)
		} else {
			received = append(received, input[i])
			trace = append(trace, EventTransmit)
		}
		i++
	}
	return received, trace
}

// TransmitReference is the original per-use scalar transmit loop. It is
// the ground truth for the fast paths: differential tests assert
// identical outputs and RNG state, and BenchmarkTransmit and
// BenchmarkBinaryTransmit time it as their "reference" variant.
func (c *DeletionInsertion) TransmitReference(input []uint32) (received []uint32, trace []EventKind) {
	return TransmitUses(c, input)
}

// TransmitUses pushes the whole input sequence through any per-use
// channel, one Use per channel use, until every input symbol has been
// consumed, and returns the received sequence and the per-use event
// trace. Transmitting through a wrapper, such as an obs.ChannelRecorder,
// lets the wrapper observe every use.
func TransmitUses(ch interface{ Use(uint32) Use }, input []uint32) (received []uint32, trace []EventKind) {
	received = make([]uint32, 0, len(input))
	trace = make([]EventKind, 0, len(input)+4)
	for i := 0; i < len(input); {
		u := ch.Use(input[i])
		trace = append(trace, u.Kind)
		switch u.Kind {
		case EventDelete:
			i++
		case EventInsert:
			received = append(received, u.Delivered)
		default:
			received = append(received, u.Delivered)
			i++
		}
	}
	return received, trace
}
