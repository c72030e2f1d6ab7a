package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/rng"
)

func TestAlignIdentical(t *testing.T) {
	s := []uint32{1, 2, 3, 4}
	c := Align(s, s)
	if c.Matches != 4 || c.Distance() != 0 {
		t.Fatalf("Align(identical) = %+v", c)
	}
}

func TestAlignPureDeletion(t *testing.T) {
	c := Align([]uint32{1, 2, 3, 4, 5}, []uint32{1, 3, 5})
	if c.Deletions != 2 || c.Insertions != 0 || c.Substitutions != 0 || c.Matches != 3 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignPureInsertion(t *testing.T) {
	c := Align([]uint32{1, 2}, []uint32{9, 1, 9, 2, 9})
	if c.Insertions != 3 || c.Deletions != 0 || c.Matches != 2 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignSubstitution(t *testing.T) {
	c := Align([]uint32{1, 2, 3}, []uint32{1, 7, 3})
	if c.Substitutions != 1 || c.Matches != 2 || c.Distance() != 1 {
		t.Fatalf("Align = %+v", c)
	}
}

func TestAlignEmpty(t *testing.T) {
	if c := Align(nil, nil); c.Distance() != 0 {
		t.Fatalf("Align(nil, nil) = %+v", c)
	}
	if c := Align([]uint32{1, 2}, nil); c.Deletions != 2 {
		t.Fatalf("Align(s, nil) = %+v", c)
	}
	if c := Align(nil, []uint32{1, 2, 3}); c.Insertions != 3 {
		t.Fatalf("Align(nil, r) = %+v", c)
	}
}

func TestEditDistanceKnown(t *testing.T) {
	tests := []struct {
		sent, recv []uint32
		want       int
	}{
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3}, 1},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3, 4}, 1},
		{[]uint32{1, 2, 3}, []uint32{3, 2, 1}, 2},
		{[]uint32{1, 1, 1, 1}, []uint32{2, 2, 2, 2}, 4},
	}
	for _, tt := range tests {
		if got := Align(tt.sent, tt.recv).Distance(); got != tt.want {
			t.Errorf("Align(%v, %v).Distance() = %d, want %d", tt.sent, tt.recv, got, tt.want)
		}
	}
}

// truncate keeps quick-generated sequences small so the O(nm) alignment
// stays fast.
func truncate(raw []byte, limit int) []uint32 {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	out := make([]uint32, len(raw))
	for i, b := range raw {
		out[i] = uint32(b % 4)
	}
	return out
}

func TestAlignOpsConsistency(t *testing.T) {
	// Property: the operation sequence must consume exactly the two
	// sequences, and replaying it must reproduce the received sequence
	// modulo inserted/substituted values.
	err := quick.Check(func(rawA, rawB []byte) bool {
		sent := truncate(rawA, 20)
		recv := truncate(rawB, 20)
		ops := AlignOps(sent, recv)
		i, j := 0, 0
		for _, op := range ops {
			switch op {
			case OpMatch:
				if i >= len(sent) || j >= len(recv) || sent[i] != recv[j] {
					return false
				}
				i++
				j++
			case OpSubstitute:
				if i >= len(sent) || j >= len(recv) || sent[i] == recv[j] {
					return false
				}
				i++
				j++
			case OpDelete:
				i++
			case OpInsert:
				j++
			default:
				return false
			}
		}
		return i == len(sent) && j == len(recv)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlignDistanceTriangle(t *testing.T) {
	// Property: distance is symmetric, bounded by the longer length,
	// and deletions minus insertions equals the length difference
	// (ties between optimal alignments may trade S for D+I pairs, so
	// individual op counts need not swap exactly under reversal).
	err := quick.Check(func(rawA, rawB []byte) bool {
		a := truncate(rawA, 20)
		b := truncate(rawB, 20)
		ab := Align(a, b)
		ba := Align(b, a)
		if ab.Distance() != ba.Distance() {
			return false
		}
		if ab.Deletions-ab.Insertions != len(a)-len(b) {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		return ab.Distance() <= max
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEditCountsRates(t *testing.T) {
	c := EditCounts{Matches: 70, Substitutions: 10, Deletions: 15, Insertions: 5}
	pd, pi, ps := c.Rates()
	if !almostEqual(pd, 0.15, 1e-12) || !almostEqual(pi, 0.05, 1e-12) || !almostEqual(ps, 0.125, 1e-12) {
		t.Fatalf("Rates = %v, %v, %v", pd, pi, ps)
	}
	var zero EditCounts
	pd, pi, ps = zero.Rates()
	if pd != 0 || pi != 0 || ps != 0 {
		t.Fatal("zero counts should yield zero rates")
	}
}

func TestEditOpString(t *testing.T) {
	tests := []struct {
		op   EditOp
		want string
	}{
		{OpMatch, "M"}, {OpSubstitute, "S"}, {OpDelete, "D"}, {OpInsert, "I"}, {EditOp(0), "?"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("EditOp(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

// countOps tallies an AlignOps sequence: the counts Align must return.
func countOps(ops []EditOp) EditCounts {
	var c EditCounts
	for _, op := range ops {
		switch op {
		case OpMatch:
			c.Matches++
		case OpSubstitute:
			c.Substitutions++
		case OpDelete:
			c.Deletions++
		case OpInsert:
			c.Insertions++
		}
	}
	return c
}

// TestAlignMatchesAlignOps checks Align's two-row DP against the full
// AlignOps traceback, tie-breaking included: short random pairs over
// small alphabets, which are dense in ties, and channel-shaped pairs, a
// message next to what a deletion–insertion channel delivered for it.
func TestAlignMatchesAlignOps(t *testing.T) {
	src := rng.New(17)
	check := func(sent, recv []uint32) {
		t.Helper()
		if got, want := Align(sent, recv), countOps(AlignOps(sent, recv)); got != want {
			t.Fatalf("Align(%v, %v) = %+v, AlignOps counts %+v", sent, recv, got, want)
		}
	}
	randomSeq := func(maxLen, n int) []uint32 {
		seq := make([]uint32, src.Intn(maxLen+1))
		for i := range seq {
			seq[i] = src.Symbol(n)
		}
		return seq
	}
	for k := 0; k < 20000; k++ {
		n := 1 + k%3
		check(randomSeq(10, n), randomSeq(10, n))
	}
	for k := 0; k < 300; k++ {
		params := channel.Params{N: 1 + k%4, Pd: 0.3 * src.Float64(), Pi: 0.3 * src.Float64(), Ps: 0.2 * src.Float64()}
		ch, err := channel.NewDeletionInsertion(params, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]uint32, 1+src.Intn(400))
		for i := range msg {
			msg[i] = src.Symbol(params.N)
		}
		recv, _ := ch.Transmit(msg)
		check(msg, recv)
	}
}
