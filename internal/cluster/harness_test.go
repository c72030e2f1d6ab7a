package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestHarnessKillRestartRun is the compute harness's gate without a
// trace directory: the kill/restart run must pass Assert (byte
// identity, fault counters, convergence, and in-memory spans that
// satisfy every chain invariant and reconcile exactly with the routing
// counters across both incarnations of the killed node).
func TestHarnessKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	rep, err := RunHarness(HarnessOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
	if rep.Failovers == 0 {
		t.Fatal("no client failover despite a dead node in the dispatch rotation")
	}
	if rep.StoreEntries == 0 {
		t.Fatal("shared store is empty after the run")
	}
	// The killed-and-restarted member emitted spans too (two
	// incarnations merged under one member name).
	if len(rep.Trace.PerNode[computeFault.node]) == 0 {
		t.Fatalf("no spans from the killed member %s", computeFault.node)
	}
}

// TestHarnessTracedKillRestartRun checks the -trace-dir output: the
// kill/restart run must pass Assert, and the written trace directory
// must round-trip to the same verdict through the capstat
// file-ingestion path.
func TestHarnessTracedKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	dir := t.TempDir()
	rep, err := RunHarness(HarnessOptions{Seed: 1, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("traced harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}

	// The on-disk trace directory feeds the capstat CLI path and must
	// reach the same verdict.
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
}
