package infotheory

import (
	"fmt"
	"testing"
)

// BenchmarkBlahutArimotoMSC times one capacity solve of the 64-input
// converted channel and of cold-grid's largest, the 256-input one:
// kernel on the implicit MSC, reference on its prebuilt dense twin.
func BenchmarkBlahutArimotoMSC(b *testing.B) {
	for _, m := range []int{64, 256} {
		c, err := MSC(m, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		twin := denseTwin(b, c)
		for _, bc := range []struct {
			name     string
			capacity func(float64, int) (CapacityResult, error)
		}{{"kernel", c.Capacity}, {"reference", twin.CapacityReference}} {
			b.Run(fmt.Sprintf("M=%d/%s", m, bc.name), func(b *testing.B) {
				// One solve first fills the kernel's scratch pool.
				if _, err := bc.capacity(1e-9, 0); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bc.capacity(1e-9, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCapacityPerCostZ(b *testing.B) {
	z, err := ZChannel(0.2)
	if err != nil {
		b.Fatal(err)
	}
	costs := []float64{1, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := z.CapacityPerCost(costs, 1e-9, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFSMCapacity(b *testing.B) {
	trs := []FSMTransition{
		{From: 0, To: 1, Duration: 1},
		{From: 0, To: 1, Duration: 2},
		{From: 1, To: 0, Duration: 1},
		{From: 1, To: 2, Duration: 3},
		{From: 2, To: 0, Duration: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FSMCapacity(3, trs); err != nil {
			b.Fatal(err)
		}
	}
}
