package conv

import (
	"container/heap"
	"fmt"
	"math"
)

// This file retains the pre-optimization decoders verbatim. They are
// the ground truth for the pooled/memoized decoders in drift.go and
// sequential.go: differential tests assert identical messages,
// expansion counts and errors, and the "reference" variants of
// BenchmarkDriftViterbi and BenchmarkSequentialStack time them.

// refSeqNode is one partial path in the reference decoding tree.
type refSeqNode struct {
	metric float64
	step   int
	state  uint32
	drift  int
	parent *refSeqNode
	bit    byte
	index  int
}

// refSeqHeap is a max-heap on the metric.
type refSeqHeap []*refSeqNode

func (h refSeqHeap) Len() int           { return len(h) }
func (h refSeqHeap) Less(i, j int) bool { return h[i].metric > h[j].metric }
func (h refSeqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refSeqHeap) Push(x any)        { n := x.(*refSeqNode); n.index = len(*h); *h = append(*h, n) }
func (h *refSeqHeap) Pop() any {
	old := *h
	n := len(old)
	node := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return node
}

// DecodeSequentialReference is the original per-node-allocating stack
// decoder. DecodeSequential must match it bit-for-bit: same message,
// same expansion count, same error cases.
func (c *Code) DecodeSequentialReference(recv []byte, msgLen int, p SequentialParams) ([]byte, int, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	if msgLen < 1 {
		return nil, 0, fmt.Errorf("conv: message length %d, want >= 1", msgLen)
	}
	for i, b := range recv {
		if b > 1 {
			return nil, 0, fmt.Errorf("conv: received bit %d is %d, want 0 or 1", i, b)
		}
	}
	var (
		n     = len(c.gens)
		steps = msgLen + c.k - 1
		sent  = steps * n
		D     = p.MaxDrift
	)
	finalDrift := len(recv) - sent
	if finalDrift < -D || finalDrift > D {
		return nil, 0, fmt.Errorf("conv: realized drift %d exceeds MaxDrift %d", finalDrift, D)
	}
	maxExp := p.MaxExpansions
	if maxExp == 0 {
		maxExp = 200 * msgLen
	}

	pt := 1 - p.Pd - p.Pi
	var (
		lDel      = negLog(p.Pd) / math.Ln2
		lIns      = negLog(p.Pi*0.5) / math.Ln2
		lMatch    = negLog(pt*(1-p.Ps)) / math.Ln2
		lMismatch = negLog(pt*p.Ps) / math.Ln2
	)
	bias := p.Pd*lDel + p.Pi*lIns + pt*((1-p.Ps)*lMatch+p.Ps*lMismatch)
	bias *= 1 + p.Pi

	ddMax := n + 2
	gw := 2*ddMax + 1
	gamma := make([][]float64, n+1)
	for j := range gamma {
		gamma[j] = make([]float64, gw)
	}
	chunk := make([]byte, n)
	inf := math.Inf(1)
	branchCost := func(base, d int, state uint32, b byte) (uint32, []float64) {
		next := c.stepInto(chunk, state, b)
		for j := range gamma {
			for g := range gamma[j] {
				gamma[j][g] = inf
			}
		}
		gamma[0][ddMax] = 0
		for j := 0; j < n; j++ {
			for g := 0; g < gw; g++ {
				cur := gamma[j][g]
				if math.IsInf(cur, 1) {
					continue
				}
				dd := g - ddMax
				idx := base + j + d + dd
				if g+1 < gw && idx >= 0 && idx < len(recv) && d+dd+1 <= D {
					if v := cur + lIns; v < gamma[j][g+1] {
						gamma[j][g+1] = v
					}
				}
				if g-1 >= 0 && d+dd-1 >= -D {
					if v := cur + lDel; v < gamma[j+1][g-1] {
						gamma[j+1][g-1] = v
					}
				}
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
		return next, gamma[n]
	}

	var stack refSeqHeap
	heap.Push(&stack, &refSeqNode{drift: 0})
	expansions := 0
	for stack.Len() > 0 {
		node := heap.Pop(&stack).(*refSeqNode)
		if node.step == steps {
			if node.state != 0 || node.drift != finalDrift {
				continue
			}
			msg := make([]byte, msgLen)
			for cur := node; cur.parent != nil; cur = cur.parent {
				if cur.step-1 < msgLen {
					msg[cur.step-1] = cur.bit
				}
			}
			return msg, expansions, nil
		}
		expansions++
		if expansions > maxExp {
			return nil, expansions, fmt.Errorf("conv: sequential decoder hit the work limit (%d expansions)", maxExp)
		}
		maxBit := byte(1)
		if node.step >= msgLen {
			maxBit = 0
		}
		base := node.step * n
		for b := byte(0); b <= maxBit; b++ {
			nextState, exit := branchCost(base, node.drift, node.state, b)
			for g, cost := range exit {
				if math.IsInf(cost, 1) {
					continue
				}
				nd := node.drift + g - ddMax
				if nd < -D || nd > D {
					continue
				}
				heap.Push(&stack, &refSeqNode{
					metric: node.metric - cost + bias*float64(n),
					step:   node.step + 1,
					state:  nextState,
					drift:  nd,
					parent: node,
					bit:    b,
				})
			}
		}
	}
	return nil, expansions, fmt.Errorf("conv: no drift-consistent path found")
}

// DecodeDriftReference is the original per-step-allocating drift
// Viterbi decoder; DecodeDrift must match it bit-for-bit.
func (c *Code) DecodeDriftReference(recv []byte, msgLen int, p DriftParams) ([]byte, error) {
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
	cost[0*nd+D] = 0
	pred := make([][]driftHop, steps)

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
			maxBit = 0
		}
		base := t * n
		for s := 0; s < ns; s++ {
			for di := 0; di < nd; di++ {
				start := cost[s*nd+di]
				if math.IsInf(start, 1) {
					continue
				}
				d := di - D
				for b := byte(0); b <= maxBit; b++ {
					nextState := c.stepInto(chunk, uint32(s), b)
					for j := range gamma {
						for k := range gamma[j] {
							gamma[j][k] = inf
						}
					}
					gamma[0][ddMax] = 0
					for j := 0; j < n; j++ {
						for g := 0; g < gw; g++ {
							cur := gamma[j][g]
							if math.IsInf(cur, 1) {
								continue
							}
							dd := g - ddMax
							idx := base + j + d + dd
							if dd < insCap+j+1 && g+1 < gw && idx >= 0 && idx < len(recv) &&
								d+dd+1 <= D {
								if v := cur + lIns; v < gamma[j][g+1] {
									gamma[j][g+1] = v
								}
							}
							if g-1 >= 0 && d+dd-1 >= -D {
								if v := cur + lDel; v < gamma[j+1][g-1] {
									gamma[j+1][g-1] = v
								}
							}
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
