package conv

import (
	"fmt"
	"math"
)

// DriftParams configures the deletion–insertion Viterbi decoder.
type DriftParams struct {
	// Pd, Pi, Ps are the Definition 1 channel parameters at bit level
	// (Ps is the flip probability of a transmitted bit).
	Pd, Pi, Ps float64
	// MaxDrift bounds |received - transmitted| position offset tracked
	// by the decoder. It must cover the realized drift; 3–4 standard
	// deviations of the drift random walk is a good choice.
	MaxDrift int
	// MaxInsertionsPerBit caps consecutive insertions considered
	// before each coded bit (default 2 when 0).
	MaxInsertionsPerBit int
}

// validate checks the parameters.
func (p DriftParams) validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"Pd", p.Pd}, {"Pi", p.Pi}, {"Ps", p.Ps}} {
		if v.val < 0 || v.val > 1 {
			return fmt.Errorf("conv: %s = %v out of [0,1]", v.name, v.val)
		}
	}
	if p.Pd+p.Pi >= 1 {
		return fmt.Errorf("conv: Pd + Pi = %v must be < 1", p.Pd+p.Pi)
	}
	if p.MaxDrift < 0 || p.MaxDrift > 512 {
		return fmt.Errorf("conv: MaxDrift %d out of [0,512]", p.MaxDrift)
	}
	if p.MaxInsertionsPerBit < 0 {
		return fmt.Errorf("conv: negative insertion cap")
	}
	return nil
}

// negLog returns -ln(p) with a floor so impossible events stay finite
// but strongly disfavoured (keeps the trellis connected under model
// mismatch).
func negLog(p float64) float64 {
	const floor = 1e-12
	if p < floor {
		p = floor
	}
	return -math.Log(p)
}

// driftHop records one traceback step of the drift trellis.
type driftHop struct {
	prevState uint32
	prevDrift int16
	bit       byte
	ok        bool
}

// DecodeDrift decodes a received bit stream that passed through a
// binary deletion–insertion channel, jointly estimating the message and
// the drift trajectory by Viterbi search over (encoder state, drift).
// msgLen is the number of message bits (the encoder appended K-1 flush
// bits). It returns the most likely message, or an error if no path is
// consistent with the drift bound.
func (c *Code) DecodeDrift(recv []byte, msgLen int, p DriftParams) ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if msgLen < 1 {
		return nil, fmt.Errorf("conv: message length %d, want >= 1", msgLen)
	}
	for i, b := range recv {
		if b > 1 {
			return nil, fmt.Errorf("conv: received bit %d is %d, want 0 or 1", i, b)
		}
	}
	insCap := p.MaxInsertionsPerBit
	if insCap == 0 {
		insCap = 2
	}
	var (
		n     = len(c.gens)
		steps = msgLen + c.k - 1
		sent  = steps * n
		ns    = c.numStates()
		D     = p.MaxDrift
		nd    = 2*D + 1
	)
	finalDrift := len(recv) - sent
	if finalDrift < -D || finalDrift > D {
		return nil, fmt.Errorf("conv: realized drift %d exceeds MaxDrift %d", finalDrift, D)
	}
	pt := 1 - p.Pd - p.Pi
	var (
		lDel      = negLog(p.Pd)
		lIns      = negLog(p.Pi * 0.5)
		lMatch    = negLog(pt * (1 - p.Ps))
		lMismatch = negLog(pt * p.Ps)
	)

	inf := math.Inf(1)
	cost := make([]float64, ns*nd)
	for i := range cost {
		cost[i] = inf
	}
	cost[0*nd+D] = 0 // state 0, drift 0
	pred := make([][]driftHop, steps)

	// Inner DP scratch: gamma[j][dd+ddMax] over local drift dd, with
	// one extra slot per allowed insertion.
	ddMax := n + insCap
	gw := 2*ddMax + 1
	gamma := make([][]float64, n+1)
	for j := range gamma {
		gamma[j] = make([]float64, gw)
	}
	chunk := make([]byte, n)

	for t := 0; t < steps; t++ {
		next := make([]float64, ns*nd)
		for i := range next {
			next[i] = inf
		}
		pred[t] = make([]driftHop, ns*nd)
		maxBit := byte(1)
		if t >= msgLen {
			maxBit = 0 // flush bits
		}
		base := t * n // transmitted bits before this step
		for s := 0; s < ns; s++ {
			for di := 0; di < nd; di++ {
				start := cost[s*nd+di]
				if math.IsInf(start, 1) {
					continue
				}
				d := di - D
				for b := byte(0); b <= maxBit; b++ {
					nextState := c.stepInto(chunk, uint32(s), b)
					// Inner DP over the branch's n coded bits.
					for j := range gamma {
						for k := range gamma[j] {
							gamma[j][k] = inf
						}
					}
					gamma[0][ddMax] = 0
					for j := 0; j < n; j++ {
						// Ascending dd so insertion self-loops resolve.
						for g := 0; g < gw; g++ {
							cur := gamma[j][g]
							if math.IsInf(cur, 1) {
								continue
							}
							dd := g - ddMax
							idx := base + j + d + dd // next received bit
							// Insertion before coded bit j.
							if dd < insCap+j+1 && g+1 < gw && idx >= 0 && idx < len(recv) &&
								d+dd+1 <= D {
								if v := cur + lIns; v < gamma[j][g+1] {
									gamma[j][g+1] = v
								}
							}
							// Deletion of coded bit j.
							if g-1 >= 0 && d+dd-1 >= -D {
								if v := cur + lDel; v < gamma[j+1][g-1] {
									gamma[j+1][g-1] = v
								}
							}
							// Transmission of coded bit j.
							if idx >= 0 && idx < len(recv) {
								l := lMatch
								if recv[idx] != chunk[j] {
									l = lMismatch
								}
								if v := cur + l; v < gamma[j+1][g] {
									gamma[j+1][g] = v
								}
							}
						}
					}
					for g := 0; g < gw; g++ {
						branch := gamma[n][g]
						if math.IsInf(branch, 1) {
							continue
						}
						dd := g - ddMax
						ndrift := d + dd
						if ndrift < -D || ndrift > D {
							continue
						}
						slot := int(nextState)*nd + (ndrift + D)
						if v := start + branch; v < next[slot] {
							next[slot] = v
							pred[t][slot] = driftHop{
								prevState: uint32(s),
								prevDrift: int16(d),
								bit:       b,
								ok:        true,
							}
						}
					}
				}
			}
		}
		cost = next
	}

	finalSlot := 0*nd + (finalDrift + D)
	if math.IsInf(cost[finalSlot], 1) {
		return nil, fmt.Errorf("conv: no drift-trellis path reaches termination (raise MaxDrift?)")
	}
	msg := make([]byte, msgLen)
	state, drift := uint32(0), finalDrift
	for t := steps - 1; t >= 0; t-- {
		h := pred[t][int(state)*nd+(drift+D)]
		if !h.ok {
			return nil, fmt.Errorf("conv: drift traceback broke at step %d", t)
		}
		if t < msgLen {
			msg[t] = h.bit
		}
		state, drift = h.prevState, int(h.prevDrift)
	}
	return msg, nil
}
