package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// smokeOptions is a scaled-down kill/restart run: small enough for the
// unit-test suite, large enough that every fault path engages.
func smokeOptions(t *testing.T) HarnessOptions {
	return HarnessOptions{
		Nodes:        []string{"n1", "n2", "n3"},
		Requests:     90,
		Seed:         1,
		Unique:       8,
		ExactN:       8,
		KillAfter:    30,
		RestartAfter: 60,
		StoreDir:     t.TempDir(),
	}
}

func TestHarnessKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	o := smokeOptions(t)
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
	if rep.Killed != "n2" {
		t.Fatalf("killed %q, want the middle sorted member n2", rep.Killed)
	}
	if !rep.Restarted {
		t.Fatal("restart never happened")
	}
	if rep.Failovers == 0 {
		t.Fatal("no client failover despite a dead node in the dispatch rotation")
	}
	if rep.Convergence.Paths == 0 || rep.Convergence.Recomputed != 0 {
		t.Fatalf("convergence: %+v", rep.Convergence)
	}
	if rep.StoreEntries == 0 {
		t.Fatal("shared store is empty after the run")
	}
}

func TestHarnessNoFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness")
	}
	o := HarnessOptions{
		Requests:  40,
		Unique:    6,
		ExactN:    7,
		KillAfter: -1,
		StoreDir:  t.TempDir(),
	}
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed != "" || rep.Restarted {
		t.Fatalf("fault ran despite KillAfter=-1: %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches on a healthy cluster", rep.Mismatches)
	}
	if rep.Failovers != 0 {
		t.Fatalf("%d failovers on a healthy cluster", rep.Failovers)
	}
	if rep.Totals()["cluster_degraded_total"] != 0 {
		t.Fatal("degraded responses on a healthy cluster")
	}
}

// TestHarnessTracedKillRestartRun is the trace-reconciliation gate:
// a kill/restart run with tracing on must produce spans that satisfy
// every chain invariant and reconcile exactly with the routing
// counters — across both incarnations of the killed node — and the
// written trace directory must round-trip to the same verdict through
// the capstat file-ingestion path.
func TestHarnessTracedKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	o := smokeOptions(t)
	o.TraceDir = t.TempDir() // implies Trace
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("traced harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Trace.Spans == 0 {
		t.Fatal("traced run produced no trace verdict")
	}
	if len(rep.Trace.Violations) != 0 {
		t.Fatalf("trace violations: %v", rep.Trace.Violations)
	}
	if len(rep.TraceMismatches) != 0 {
		t.Fatalf("trace/counter mismatches: %v", rep.TraceMismatches)
	}
	// The killed-and-restarted member emitted spans too (two
	// incarnations merged under one member name).
	if len(rep.Trace.PerNode[rep.Killed]) == 0 {
		t.Fatalf("no spans from the killed member %s", rep.Killed)
	}

	// The on-disk trace directory feeds the capstat CLI path and must
	// reach the same verdict.
	var paths []string
	for _, name := range o.Nodes {
		paths = append(paths, filepath.Join(o.TraceDir, name+".jsonl"))
	}
	spans, err := obs.ReadReqSpanFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != rep.Trace.Spans {
		t.Fatalf("trace dir holds %d spans, report has %d", len(spans), rep.Trace.Spans)
	}
	raw, err := os.ReadFile(filepath.Join(o.TraceDir, "counters.json"))
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
