package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestJointCounterErrors(t *testing.T) {
	if _, err := NewJointCounter(0, 2); err == nil {
		t.Error("expected error for zero alphabet")
	}
	j, err := NewJointCounter(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Add(2, 0); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := j.Add(0, -1); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestMutualInformationPerfectChannel(t *testing.T) {
	j, err := NewJointCounter(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 100000; i++ {
		x := r.Intn(4)
		if err := j.Add(x, x); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform input over 4 symbols through a noiseless channel: 2 bits.
	if mi := j.MutualInformation(); math.Abs(mi-2) > 0.01 {
		t.Fatalf("MI = %v, want ~2", mi)
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	j, err := NewJointCounter(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 200000; i++ {
		if err := j.Add(r.Intn(2), r.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	// Independent X and Y: MI ~ 0 (plug-in bias is O(1/n)).
	if mi := j.MutualInformation(); mi > 0.001 {
		t.Fatalf("MI = %v, want ~0", mi)
	}
}

func TestMutualInformationBSC(t *testing.T) {
	// Binary symmetric channel with crossover 0.11 and uniform input:
	// I = 1 - H(0.11) = 1 - 0.4999... ~ 0.5 bits.
	j, err := NewJointCounter(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	const p = 0.11
	for i := 0; i < 400000; i++ {
		x := r.Intn(2)
		y := x
		if r.Bool(p) {
			y = 1 - x
		}
		if err := j.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	want := 1 + p*math.Log2(p) + (1-p)*math.Log2(1-p)
	if mi := j.MutualInformation(); math.Abs(mi-want) > 0.01 {
		t.Fatalf("MI = %v, want ~%v", mi, want)
	}
}

func TestMutualInformationEmpty(t *testing.T) {
	j, err := NewJointCounter(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if j.MutualInformation() != 0 {
		t.Fatal("empty counter should report zero MI")
	}
	if j.Total() != 0 {
		t.Fatal("empty counter should report zero total")
	}
}
