package conv

import (
	"container/heap"
	"fmt"
	"math"
)

// This file implements stack-algorithm sequential decoding over the
// joint (encoder state × drift) tree — the direct descendant of
// Zigangirov's sequential decoding for binary channels with drop-outs
// and insertions, the paper's reference [12]. Unlike the Viterbi
// decoder in drift.go, which explores the full trellis, the stack
// algorithm extends only the most promising path, visiting a tiny
// fraction of the tree at moderate noise at the cost of a work-limit
// failure mode at high noise (the classic sequential-decoding
// computational cutoff).

// seqNode is one partial path in the decoding tree.
type seqNode struct {
	metric float64 // Fano-style metric: log2 prob - bias*depth
	step   int     // input bits decoded
	state  uint32
	drift  int
	parent *seqNode
	bit    byte
}

// seqHeap is a max-heap on the metric.
type seqHeap []*seqNode

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].metric > h[j].metric }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(*seqNode)) }
func (h *seqHeap) Pop() any {
	old := *h
	n := len(old)
	node := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return node
}

// SequentialParams configures the sequential decoder.
type SequentialParams struct {
	// Channel model, as for DecodeDrift.
	Pd, Pi, Ps float64
	// MaxDrift bounds the tracked drift.
	MaxDrift int
	// MaxExpansions caps the number of node expansions before the
	// decoder gives up (the sequential-decoding erasure event);
	// 0 defaults to 200 per message bit.
	MaxExpansions int
}

// validate checks the parameters.
func (p SequentialParams) validate() error {
	d := DriftParams{Pd: p.Pd, Pi: p.Pi, Ps: p.Ps, MaxDrift: p.MaxDrift}
	if err := d.validate(); err != nil {
		return err
	}
	if p.MaxExpansions < 0 {
		return fmt.Errorf("conv: negative expansion cap")
	}
	return nil
}

// DecodeSequential decodes a received stream from a binary
// deletion–insertion channel with the stack algorithm. It returns the
// decoded message and the number of node expansions performed, or an
// error when the work limit is hit before reaching a terminated path
// (a decoding erasure) or no path is drift-consistent.
func (c *Code) DecodeSequential(recv []byte, msgLen int, p SequentialParams) ([]byte, int, error) {
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
	// Fano bias: the expected per-coded-bit cost of the *correct* path,
	// so the true path's metric performs a near-zero-drift random walk
	// while wrong paths drift downward.
	bias := p.Pd*lDel + p.Pi*lIns + pt*((1-p.Ps)*lMatch+p.Ps*lMismatch)
	bias *= 1 + p.Pi // insertions add events beyond one per coded bit

	// Inner DP geometry: gamma[j][dd+ddMax] over local drift dd.
	ddMax := n + 2
	gw := 2*ddMax + 1
	gamma := make([][]float64, n+1)
	for j := range gamma {
		gamma[j] = make([]float64, gw)
	}
	chunk := make([]byte, n)
	inf := math.Inf(1)
	// branchCost runs the inner DP for one input bit's n coded bits
	// starting at transmitted position base with entry drift d, and
	// returns the next encoder state and the minimum cost to each exit
	// drift.
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

	var stack seqHeap
	heap.Push(&stack, &seqNode{})
	expansions := 0
	for stack.Len() > 0 {
		node := heap.Pop(&stack).(*seqNode)
		if node.step == steps {
			if node.state != 0 || node.drift != finalDrift {
				continue // mis-terminated path
			}
			// Reconstruct the message from the parent chain.
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
			maxBit = 0 // flush bits
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
				heap.Push(&stack, &seqNode{
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
