package stats

// Edit-distance alignment between a transmitted and a received symbol
// sequence. The paper's capacity estimation procedure (Section 4.4)
// requires estimating the deletion probability Pd of a covert channel
// from observed behaviour; aligning transmitted against received traces
// and counting deletion/insertion/substitution operations is how those
// probabilities are measured empirically in the experiment harness.

// EditOp is one alignment operation.
type EditOp int

// Alignment operation kinds. Match means the symbols agree.
const (
	OpMatch EditOp = iota + 1
	OpSubstitute
	OpDelete // symbol present in sent, absent in received
	OpInsert // symbol absent in sent, present in received
)

// String returns a single-letter code for the operation.
func (op EditOp) String() string {
	switch op {
	case OpMatch:
		return "M"
	case OpSubstitute:
		return "S"
	case OpDelete:
		return "D"
	case OpInsert:
		return "I"
	default:
		return "?"
	}
}

// EditCounts aggregates alignment operations.
type EditCounts struct {
	Matches       int
	Substitutions int
	Deletions     int
	Insertions    int
}

// Distance returns the Levenshtein distance implied by the counts.
func (c EditCounts) Distance() int {
	return c.Substitutions + c.Deletions + c.Insertions
}

// Rates converts counts to empirical per-channel-use event rates using
// the paper's Definition 1 accounting: the number of channel uses is the
// number of alignment operations (every use either deletes a queued
// symbol, inserts a spurious one, or transmits).
func (c EditCounts) Rates() (pd, pi, ps float64) {
	uses := c.Matches + c.Substitutions + c.Deletions + c.Insertions
	if uses == 0 {
		return 0, 0, 0
	}
	n := float64(uses)
	pd = float64(c.Deletions) / n
	pi = float64(c.Insertions) / n
	transmitted := c.Matches + c.Substitutions
	if transmitted > 0 {
		ps = float64(c.Substitutions) / float64(transmitted)
	}
	return pd, pi, ps
}

// Align computes a minimal-cost alignment (unit costs for substitution,
// deletion and insertion) between sent and received symbol sequences and
// returns the operation counts. Ties are broken in favour of matches,
// then substitutions, then deletions.
//
// The counts are those of the path AlignOps traces back, computed in
// O(len(received)) memory: the traceback's choice at a cell depends only
// on that cell, its diagonal and its upper neighbour, so two DP rows can
// carry the insertion count along the path next to the distance.
// Deletions − insertions = len(sent) − len(received) on every path, so
// the distance and the insertion count fix all four counts.
func Align(sent, received []uint32) EditCounts {
	type cell struct{ dist, ins int }
	n, m := len(sent), len(received)
	prev, cur := make([]cell, m+1), make([]cell, m+1)
	for j := range prev {
		prev[j] = cell{j, j}
	}
	for i := 1; i <= n; i++ {
		cur[0] = cell{i, 0}
		for j := 1; j <= m; j++ {
			diag, up, left := prev[j-1], prev[j], cur[j-1]
			match := sent[i-1] == received[j-1]
			best := diag.dist
			if !match {
				best++
			}
			if up.dist+1 < best {
				best = up.dist + 1
			}
			if left.dist+1 < best {
				best = left.dist + 1
			}
			// The same choice AlignOps's traceback makes at (i, j).
			switch {
			case match && best == diag.dist, best == diag.dist+1:
				cur[j] = cell{best, diag.ins}
			case best == up.dist+1:
				cur[j] = cell{best, up.ins}
			default:
				cur[j] = cell{best, left.ins + 1}
			}
		}
		prev, cur = cur, prev
	}
	dist, ins := prev[m].dist, prev[m].ins
	del := ins + n - m
	sub := dist - del - ins
	return EditCounts{Matches: n - sub - del, Substitutions: sub, Deletions: del, Insertions: ins}
}

// AlignOps returns the full operation sequence of a minimal alignment.
func AlignOps(sent, received []uint32) []EditOp {
	n, m := len(sent), len(received)
	// dp[i][j] = edit distance between sent[:i] and received[:j].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
		dp[i][0] = i
	}
	for j := 0; j <= m; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if sent[i-1] == received[j-1] {
				cost = 0
			}
			best := dp[i-1][j-1] + cost // match or substitute
			if d := dp[i-1][j] + 1; d < best {
				best = d // delete
			}
			if d := dp[i][j-1] + 1; d < best {
				best = d // insert
			}
			dp[i][j] = best
		}
	}
	// Trace back, preferring match/substitute over delete over insert.
	ops := make([]EditOp, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && sent[i-1] == received[j-1] && dp[i][j] == dp[i-1][j-1]:
			ops = append(ops, OpMatch)
			i--
			j--
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+1:
			ops = append(ops, OpSubstitute)
			i--
			j--
		case i > 0 && dp[i][j] == dp[i-1][j]+1:
			ops = append(ops, OpDelete)
			i--
		default:
			ops = append(ops, OpInsert)
			j--
		}
	}
	// Reverse into forward order.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}
