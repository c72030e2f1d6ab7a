package sim

import (
	"testing"
)

func TestScheduleValidation(t *testing.T) {
	var k Kernel
	if err := k.Schedule(-1, func() {}); err == nil {
		t.Error("expected error for negative delay")
	}
	if err := k.Schedule(1, nil); err == nil {
		t.Error("expected error for nil callback")
	}
}

func TestRunOrdersEventsByTime(t *testing.T) {
	var k Kernel
	var order []int
	var at []float64
	for i, d := range []float64{3, 1, 2} {
		i, d := i, d
		if err := k.Schedule(d, func() {
			order = append(order, i)
			at = append(at, k.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.RunUntil(10); n != 3 {
		t.Fatalf("RunUntil executed %d events, want 3", n)
	}
	want := []int{1, 2, 0}
	wantAt := []float64{1, 2, 3}
	for i := range want {
		if order[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("order = %v at %v, want %v at %v", order, at, want, wantAt)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := k.Schedule(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.RunUntil(1); n != 5 {
		t.Fatalf("RunUntil executed %d events, want 5", n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSelfScheduling(t *testing.T) {
	var k Kernel
	count := 0
	var last float64
	var tick func()
	tick = func() {
		count++
		last = k.Now()
		if count < 10 {
			if err := k.Schedule(1, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := k.Schedule(1, tick); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if last != 10 {
		t.Fatalf("last tick at %v, want 10", last)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	ran := 0
	for _, d := range []float64{1, 2, 5} {
		if err := k.Schedule(d, func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.RunUntil(3); n != 2 {
		t.Fatalf("RunUntil executed %d, want 2", n)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
	if n := k.RunUntil(10); n != 1 {
		t.Fatalf("second RunUntil executed %d, want 1", n)
	}
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	var k Kernel
	k.RunUntil(7)
	if k.Now() != 7 {
		t.Fatalf("Now = %v, want 7", k.Now())
	}
}
