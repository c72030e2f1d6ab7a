// Command capstat is the cluster trace analyzer: it ingests the
// per-node request-trace JSONL files a traced cluster run produces
// (capserverd -trace, or capload -mode cluster -trace-dir), rebuilds
// every request's cross-node hop chain, checks the trace invariants —
// every chain terminates at exactly one serving node, hedges and
// retries only accompany forwards, no chain loops back through its
// origin — and, given the per-member routing counters, reconciles the
// trace-derived accounting against them exactly, one row per traced
// routing outcome. Any violation or mismatch is a nonzero exit: the
// trace and the counters are two records of the same decisions, and
// disagreement means the router lied in one of them.
//
//	capstat -counters run/counters.json run/*.jsonl
//	capstat -top 10 run/n1.jsonl run/n2.jsonl run/n3.jsonl
//
// counters.json maps each member to its counts keyed by counter family,
// the names /metrics exposes. The live fleet view is cmd/capwatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capstat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("capstat", flag.ContinueOnError)
	var (
		countersPath = fs.String("counters", "", "per-member routing counters JSON (the harness's counters.json) to reconcile against")
		topK         = fs.Int("top", 5, "slowest chains to list (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("need trace files; see -h")
	}

	spans, err := obs.ReadReqSpanFiles(fs.Args()...)
	if err != nil {
		return err
	}
	var counters map[string]cluster.NodeCounters
	if *countersPath != "" {
		data, err := os.ReadFile(*countersPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &counters); err != nil {
			return fmt.Errorf("%s: %v", *countersPath, err)
		}
	}
	check := cluster.AnalyzeSpans(spans)
	fmt.Fprint(out, check.Format(counters, *topK))
	if !check.Healthy(counters) {
		mismatches := 0
		if counters != nil {
			mismatches = len(check.Reconcile(counters))
		}
		return fmt.Errorf("trace is unhealthy: %d violations, %d counter mismatches",
			len(check.Violations), mismatches)
	}
	return nil
}
