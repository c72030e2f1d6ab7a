package cluster

import (
	"strings"
	"testing"
)

// TestHealthHarnessLifecycle runs the alert-lifecycle harness once at
// each of two parallelism levels and requires (a) the acceptance gate
// to pass, (b) the two timelines to be byte-identical: the alert
// verdict is a function of what happened, not of send interleaving,
// and (c) the runs to leave no goroutine running.
func TestHealthHarnessLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness in -short")
	}
	run := func(jobs int) *HealthReport {
		t.Helper()
		report, survivors, err := RunHealthHarness(HealthHarnessOptions{Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if err := report.Assert(survivors); err != nil {
			t.Fatalf("jobs=%d: %v\ntimeline:\n%s", jobs, err, strings.Join(report.Timeline, "\n"))
		}
		return report
	}
	leakFree(t, func() {
		r1, r8 := run(1), run(8)
		t1 := strings.Join(r1.Timeline, "\n")
		t8 := strings.Join(r8.Timeline, "\n")
		if t1 != t8 {
			t.Fatalf("timeline differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", t1, t8)
		}
		if r1.Killed != r8.Killed {
			t.Fatalf("kill target differs across runs: %s vs %s", r1.Killed, r8.Killed)
		}
	})
}
