package channel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewErasureValidation(t *testing.T) {
	if _, err := NewErasure(0, 0.1, rng.New(1)); err == nil {
		t.Error("expected error for width 0")
	}
	if _, err := NewErasure(4, 1.5, rng.New(1)); err == nil {
		t.Error("expected error for pe > 1")
	}
	if _, err := NewErasure(4, 0.1, nil); err == nil {
		t.Error("expected error for nil source")
	}
}

func TestErasurePreservesPositions(t *testing.T) {
	c, err := NewErasure(4, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	in := randomSymbols(rng.New(3), 20000, 4)
	out := c.Transmit(in)
	if len(out) != len(in) {
		t.Fatalf("output length %d, want %d", len(out), len(in))
	}
	erased := 0
	for i, e := range out {
		if e.Erased {
			erased++
			continue
		}
		if e.Symbol != in[i] {
			t.Fatalf("position %d corrupted: %d != %d", i, e.Symbol, in[i])
		}
	}
	if rate := float64(erased) / float64(len(in)); math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("erasure rate %v, want ~0.3", rate)
	}
}

func TestBinaryDI(t *testing.T) {
	c, err := NewBinaryDI(0.1, 0.05, 0.02, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Params(); got.N != 1 || got.Pd != 0.1 {
		t.Fatalf("Params = %+v", got)
	}
	in := make([]byte, 10000)
	src := rng.New(9)
	for i := range in {
		in[i] = src.Bit()
	}
	out, err := c.Transmit(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b > 1 {
			t.Fatalf("output bit %d is %d", i, b)
		}
	}
	// Expected length ratio: received/sent = (1-Pd)/(1-Pi) because each
	// input consumes uses at rate (Pd+Pt) and each use delivers at rate
	// (Pi+Pt).
	want := (1 - 0.1) / (1 - 0.05)
	if ratio := float64(len(out)) / float64(len(in)); math.Abs(ratio-want) > 0.03 {
		t.Fatalf("length ratio %v, want ~%v", ratio, want)
	}
}

func TestBinaryDIRejectsNonBinary(t *testing.T) {
	c, err := NewBinaryDI(0, 0, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transmit([]byte{0, 1, 2}); err == nil {
		t.Fatal("expected error for non-binary input")
	}
}

func TestBinaryDIValidation(t *testing.T) {
	if _, err := NewBinaryDI(0.7, 0.7, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for Pd+Pi > 1")
	}
}
