package infotheory

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDMCErrors(t *testing.T) {
	if _, err := NewDMC(nil); err == nil {
		t.Error("expected error for empty matrix")
	}
	if _, err := NewDMC([][]float64{{0.5, 0.5}, {1}}); err == nil {
		t.Error("expected error for ragged matrix")
	}
	if _, err := NewDMC([][]float64{{0.5, 0.4}}); err == nil {
		t.Error("expected error for unnormalized row")
	}
	if _, err := NewDMC([][]float64{{1.5, -0.5}}); err == nil {
		t.Error("expected error for negative entry")
	}
}

func TestDMCMatrixIsCopied(t *testing.T) {
	w := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	c, err := NewDMC(w)
	if err != nil {
		t.Fatal(err)
	}
	w[0][0] = 99
	if c.Prob(0, 0) != 0.5 {
		t.Fatal("NewDMC did not copy its input")
	}
}

func TestMutualInformationNoiseless(t *testing.T) {
	c, err := NewDMC([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := c.MutualInformation([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mi, 1, 1e-12) {
		t.Fatalf("MI = %v, want 1", mi)
	}
}

func TestMutualInformationErrors(t *testing.T) {
	c, err := BSC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MutualInformation([]float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := c.MutualInformation([]float64{0.4, 0.4}); err == nil {
		t.Error("expected unnormalized error")
	}
}

func TestBSCCapacityMatchesBlahutArimoto(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.9} {
		c, err := BSC(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Capacity(1e-12, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := BSCCapacity(p); !almostEqual(res.Capacity, want, 1e-9) {
			t.Errorf("BSC(%v): BA capacity %v, closed form %v", p, res.Capacity, want)
		}
	}
}

func TestBECCapacityMatchesBlahutArimoto(t *testing.T) {
	for _, p := range []float64{0, 0.2, 0.5, 0.99} {
		c, err := BEC(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Capacity(1e-12, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := BECCapacity(p); !almostEqual(res.Capacity, want, 1e-9) {
			t.Errorf("BEC(%v): BA capacity %v, closed form %v", p, res.Capacity, want)
		}
	}
}

func TestZChannelCapacityMatchesBlahutArimoto(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.8, 1} {
		c, err := ZChannel(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Capacity(1e-12, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := ZChannelCapacity(p); !almostEqual(res.Capacity, want, 1e-8) {
			t.Errorf("Z(%v): BA capacity %v, closed form %v", p, res.Capacity, want)
		}
	}
}

func TestMSCCapacityMatchesBlahutArimoto(t *testing.T) {
	for _, m := range []int{2, 4, 16} {
		for _, e := range []float64{0, 0.05, 0.2, 0.5} {
			c, err := MSC(m, e)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Capacity(1e-12, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := MSCCapacity(m, e); !almostEqual(res.Capacity, want, 1e-8) {
				t.Errorf("MSC(%d, %v): BA capacity %v, closed form %v", m, e, res.Capacity, want)
			}
		}
	}
}

func TestCapacityInputIsOptimalUniformForSymmetric(t *testing.T) {
	c, err := MSC(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Capacity(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Input {
		if !almostEqual(p, 0.25, 1e-6) {
			t.Fatalf("input[%d] = %v, want 0.25 (symmetric channel)", i, p)
		}
	}
	if res.Gap > 1e-12 {
		t.Fatalf("gap %v did not converge", res.Gap)
	}
}

func TestCapacityBounds(t *testing.T) {
	// Property: 0 <= C <= log2(min(|X|, |Y|)) for random channels.
	err := quick.Check(func(a, b, c, d uint8) bool {
		row := func(x, y uint8) []float64 {
			s := float64(x) + float64(y) + 2
			return []float64{(float64(x) + 1) / s, (float64(y) + 1) / s}
		}
		ch, err := NewDMC([][]float64{row(a, b), row(c, d)})
		if err != nil {
			return false
		}
		res, err := ch.Capacity(1e-9, 0)
		if err != nil {
			return false
		}
		return res.Capacity >= 0 && res.Capacity <= 1+1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCapacityUselessChannel(t *testing.T) {
	// All rows identical: output independent of input, capacity 0.
	c, err := NewDMC([][]float64{{0.3, 0.7}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Capacity(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity > 1e-9 {
		t.Fatalf("useless channel capacity = %v, want 0", res.Capacity)
	}
}

func TestChannelConstructorsValidate(t *testing.T) {
	if _, err := BSC(-0.1); err == nil {
		t.Error("BSC should reject negative p")
	}
	if _, err := BEC(1.1); err == nil {
		t.Error("BEC should reject p > 1")
	}
	if _, err := ZChannel(2); err == nil {
		t.Error("ZChannel should reject p > 1")
	}
	if _, err := MSC(1, 0.1); err == nil {
		t.Error("MSC should reject m < 2")
	}
	if _, err := MSC(4, -0.2); err == nil {
		t.Error("MSC should reject negative e")
	}
}

func TestErasureCapacity(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0, 1},
		{1, 0.3, 0.7},
		{8, 0.25, 6},
		{4, 1, 0},
	}
	for _, tt := range tests {
		if got := ErasureCapacity(tt.n, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("ErasureCapacity(%d, %v) = %v, want %v", tt.n, tt.p, got, tt.want)
		}
	}
}

func TestZChannelCapacityKnown(t *testing.T) {
	// At p = 0.5 the Z-channel capacity is log2(5/4) ~ 0.3219.
	if got, want := ZChannelCapacity(0.5), math.Log2(1.25); !almostEqual(got, want, 1e-12) {
		t.Fatalf("ZChannelCapacity(0.5) = %v, want %v", got, want)
	}
	if ZChannelCapacity(0) != 1 {
		t.Fatal("ZChannelCapacity(0) should be 1")
	}
	if ZChannelCapacity(1) != 0 {
		t.Fatal("ZChannelCapacity(1) should be 0")
	}
}

func TestMSCCapacityEdge(t *testing.T) {
	// e = (m-1)/m makes the output uniform regardless of input: capacity 0.
	if got := MSCCapacity(4, 0.75); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("MSCCapacity(4, 0.75) = %v, want 0", got)
	}
	if got := MSCCapacity(2, 0); got != 1 {
		t.Fatalf("MSCCapacity(2, 0) = %v, want 1", got)
	}
}
