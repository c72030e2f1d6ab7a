package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestHarnessKillRestartRun is the compute harness's one run: the
// traced kill/restart run must pass Assert (byte identity, a client
// failover, fault counters, a non-empty shared store, convergence, and
// spans, from the killed member too, that satisfy every chain
// invariant and reconcile exactly with the routing counters across
// both incarnations of the killed node), the trace directory it writes
// must round-trip to the same verdict through the library calls
// capstat's run makes, and it must leave no goroutine running.
func TestHarnessKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	leakFree(t, func() {
		dir := t.TempDir()
		rep, err := RunHarness(HarnessOptions{Seed: 1, TraceDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		rep.Format(&buf)
		t.Logf("harness report:\n%s", buf.String())
		if err := rep.Assert(); err != nil {
			t.Fatal(err)
		}

		var paths []string
		for _, name := range harnessNodes {
			paths = append(paths, filepath.Join(dir, name+".jsonl"))
		}
		spans, err := obs.ReadReqSpanFiles(paths...)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != rep.Trace.Spans {
			t.Fatalf("trace dir holds %d spans, report has %d", len(spans), rep.Trace.Spans)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "counters.json"))
		if err != nil {
			t.Fatal(err)
		}
		var counters map[string]NodeCounters
		if err := json.Unmarshal(raw, &counters); err != nil {
			t.Fatal(err)
		}
		check := AnalyzeSpans(spans)
		if !check.Healthy(counters) {
			t.Fatalf("trace dir does not reconcile:\n%s", check.Format(counters, 3))
		}
	})
}
