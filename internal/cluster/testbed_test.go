package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestHarnessesLeaveNoGoroutines: every harness scenario shuts down
// every incarnation it started, killed ones included, so worker pools,
// session janitors, serve loops and client connections end with it.
func TestHarnessesLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harnesses")
	}
	for name, run := range map[string]func() error{
		"RunHarness": func() error {
			_, err := RunHarness(HarnessOptions{Seed: 1})
			return err
		},
		"RunSessionHarness": func() error {
			_, err := RunSessionHarness(SessionHarnessOptions{Seed: 1})
			return err
		},
		"RunHealthHarness": func() error {
			_, _, err := RunHealthHarness(HealthHarnessOptions{Seed: 1, Jobs: 4})
			return err
		},
	} {
		// Settled: two readings 50ms apart agree.
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			time.Sleep(50 * time.Millisecond)
			n := runtime.NumGoroutine()
			if n == before {
				break
			}
			before = n
		}
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before+2 && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before+2 {
			buf := make([]byte, 1<<20)
			t.Errorf("%s left %d goroutines running:\n%s", name, after-before, buf[:runtime.Stack(buf, true)])
		}
	}
}
