package cluster

import (
	"runtime"
	"testing"
	"time"
)

// leakFree runs fn, which makes harness runs, and fails t unless every
// goroutine they started ends: a harness shuts down every incarnation
// it started, killed ones included, so worker pools, session janitors,
// serve loops and client connections end with it. The count settles
// first (two readings 50 ms apart agree); after fn it has 5 s to fall
// back to within 2 of that, or the test fails with every stack.
func leakFree(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	fn()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before+2 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("harness runs left %d goroutines running:\n%s", after-before, buf[:runtime.Stack(buf, true)])
	}
}
