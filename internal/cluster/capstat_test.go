package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sp is shorthand for building synthetic request spans.
func sp(id, node, path string, mut ...func(*obs.ReqSpan)) obs.ReqSpan {
	s := obs.ReqSpan{ID: id, Node: node, Path: path, Status: 200}
	for _, m := range mut {
		m(&s)
	}
	return s
}

func withPeer(p string) func(*obs.ReqSpan)   { return func(s *obs.ReqSpan) { s.Peer = p } }
func withWinner(w string) func(*obs.ReqSpan) { return func(s *obs.ReqSpan) { s.Winner = w } }
func withHedge() func(*obs.ReqSpan)          { return func(s *obs.ReqSpan) { s.Hedge = 1 } }
func withServe(us int64) func(*obs.ReqSpan)  { return func(s *obs.ReqSpan) { s.ServeUS = us } }

func TestAnalyzeSpansCleanChains(t *testing.T) {
	spans := []obs.ReqSpan{
		// r1: owned on n1.
		sp("r1", "n1", obs.PathOwned, withServe(10)),
		// r2: plain forward n1 -> n2, remote serve on n2.
		sp("r2", "n1", obs.PathForward, withPeer("n2"), withWinner("n2"), withServe(5)),
		sp("r2", "n2", obs.PathRemote, withPeer("n1"), withServe(40)),
		// r3: hedged forward, hedge peer n3 wins, both peers serve.
		sp("r3", "n1", obs.PathForward, withPeer("n2"), withWinner("n3"), withHedge(), withServe(3)),
		sp("r3", "n1", obs.PathHedge, withPeer("n3")),
		sp("r3", "n2", obs.PathRemote, withPeer("n1"), withServe(500)),
		sp("r3", "n3", obs.PathRemote, withPeer("n1"), withServe(20)),
		// r4: owner dead, two retries, degraded local serve.
		sp("r4", "n1", obs.PathForward, withPeer("n2")),
		sp("r4", "n1", obs.PathRetry, withPeer("n2")),
		sp("r4", "n1", obs.PathRetry, withPeer("n2")),
		sp("r4", "n1", obs.PathDegraded, withPeer("n2"), withServe(60)),
		// r5: non-owned key found in the shared store, served on n1.
		sp("r5", "n1", obs.PathStoreLocal, withServe(2)),
	}
	check := AnalyzeSpans(spans)
	if len(check.Violations) != 0 {
		t.Fatalf("clean chains produced violations: %v", check.Violations)
	}
	if check.Requests != 5 || check.Spans != len(spans) {
		t.Fatalf("requests=%d spans=%d", check.Requests, check.Spans)
	}
	want := map[string]int64{
		obs.PathOwned: 1, obs.PathStoreLocal: 1, obs.PathForward: 3, obs.PathHedge: 1,
		HedgeWinPath: 1, obs.PathRetry: 2, obs.PathDegraded: 1, obs.PathRemote: 3,
	}
	for path, n := range want {
		if check.ByPath[path] != n {
			t.Errorf("ByPath[%s] = %d, want %d", path, check.ByPath[path], n)
		}
	}
	if check.PerNode["n1"][obs.PathForward] != 3 || check.PerNode["n2"][obs.PathRemote] != 2 {
		t.Fatalf("per-node accounting off: %v", check.PerNode)
	}

	// Chains are sorted by ID with terminal classification.
	wantChains := []struct{ id, origin, served, path string }{
		{"r1", "n1", "n1", obs.PathOwned},
		{"r2", "n1", "n2", obs.PathForward},
		{"r3", "n1", "n3", obs.PathForward},
		{"r4", "n1", "n1", obs.PathDegraded},
		{"r5", "n1", "n1", obs.PathStoreLocal},
	}
	if len(check.Chains) != len(wantChains) {
		t.Fatalf("%d chains, want %d", len(check.Chains), len(wantChains))
	}
	for i, w := range wantChains {
		ch := check.Chains[i]
		if ch.ID != w.id || ch.Origin != w.origin || ch.Served != w.served || ch.Path != w.path {
			t.Errorf("chain %d = {%s %s->%s %s}, want {%s %s->%s %s}",
				i, ch.ID, ch.Origin, ch.Served, ch.Path, w.id, w.origin, w.served, w.path)
		}
	}
	// ServeUS is the slowest local serve in the chain; TopSlow orders by it.
	if check.Chains[2].ServeUS != 500 {
		t.Fatalf("r3 serve attribution %d, want the slow losing peer's 500", check.Chains[2].ServeUS)
	}
	top := check.TopSlow(2)
	if len(top) != 2 || top[0].ID != "r3" || top[1].ID != "r4" {
		t.Fatalf("TopSlow(2) = %v", top)
	}
	if got := check.TopSlow(99); len(got) != 5 {
		t.Fatalf("TopSlow over-asking returned %d chains", len(got))
	}
}

func TestAnalyzeSpansViolations(t *testing.T) {
	cases := []struct {
		name  string
		spans []obs.ReqSpan
		want  string
	}{
		{"unknown path", []obs.ReqSpan{sp("r", "n1", "weird")}, "unknown span path"},
		{"two origins", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
			sp("r", "n3", obs.PathHedge, withPeer("n2")),
		}, "more than one node"},
		{"duplicate forward", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
			sp("r", "n1", obs.PathForward, withPeer("n3"), withWinner("n3")),
		}, "duplicate origin span"},
		{"owned not exclusive", []obs.ReqSpan{
			sp("r", "n1", obs.PathOwned),
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
		}, "owned terminal is not exclusive"},
		{"store-local with a forward", []obs.ReqSpan{
			sp("r", "n1", obs.PathStoreLocal),
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
		}, "store-local terminal is not exclusive"},
		{"store-local with a remote serve", []obs.ReqSpan{
			sp("r", "n1", obs.PathStoreLocal),
			sp("r", "n2", obs.PathRemote, withPeer("n1")),
		}, "store-local terminal is not exclusive"},
		{"retry without forward", []obs.ReqSpan{
			sp("r", "n1", obs.PathOwned),
			sp("r", "n1", obs.PathRetry, withPeer("n2")),
		}, "without a forward span"},
		{"no terminal", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2")),
		}, "winnerless forward without a degraded span"},
		{"degraded after win", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
			sp("r", "n1", obs.PathDegraded, withPeer("n2")),
		}, "degraded span after a winning forward"},
		{"hedge win without hedge span", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n3"), withHedge()),
			sp("r", "n3", obs.PathRemote, withPeer("n1")),
		}, "hedge-won forward without a hedge span"},
		{"remote on origin", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
			sp("r", "n1", obs.PathRemote, withPeer("n1")),
		}, "routing loop"},
		{"remote on untargeted node", []obs.ReqSpan{
			sp("r", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
			sp("r", "n3", obs.PathRemote, withPeer("n1")),
		}, "untargeted node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := AnalyzeSpans(tc.spans)
			found := false
			for _, v := range check.Violations {
				if strings.Contains(v, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v do not mention %q", check.Violations, tc.want)
			}
			if check.Healthy(nil) {
				t.Fatal("Healthy(nil) true despite violations")
			}
		})
	}
}

func TestReconcileExactBothDirections(t *testing.T) {
	check := AnalyzeSpans([]obs.ReqSpan{
		sp("r1", "n1", obs.PathOwned),
		sp("r2", "n1", obs.PathForward, withPeer("n2"), withWinner("n2")),
		sp("r2", "n2", obs.PathRemote, withPeer("n1")),
		sp("r3", "n2", obs.PathStoreLocal),
	})
	counters := map[string]NodeCounters{
		"n1": {"cluster_owned_local_total": 1, "cluster_forward_total": 1},
		"n2": {"cluster_remote_serve_total": 1, "cluster_store_local_total": 1},
	}
	if mm := check.Reconcile(counters); len(mm) != 0 {
		t.Fatalf("exact counters mismatch: %v", mm)
	}
	if !check.Healthy(counters) {
		t.Fatal("Healthy false on a reconciled trace")
	}

	// Counter without its span: the counter side drifted.
	over := map[string]NodeCounters{
		"n1": {"cluster_owned_local_total": 2, "cluster_forward_total": 1},
		"n2": {"cluster_remote_serve_total": 1, "cluster_store_local_total": 1},
	}
	mm := check.Reconcile(over)
	if len(mm) != 1 || !strings.Contains(mm[0], "cluster_owned_local_total is 2") {
		t.Fatalf("over-counted mismatch = %v", mm)
	}

	// A store-local serve whose counter never moved.
	uncounted := map[string]NodeCounters{
		"n1": {"cluster_owned_local_total": 1, "cluster_forward_total": 1},
		"n2": {"cluster_remote_serve_total": 1},
	}
	mm = check.Reconcile(uncounted)
	if len(mm) != 1 || !strings.Contains(mm[0], "n2: trace has 1 store-local spans, cluster_store_local_total is 0") {
		t.Fatalf("uncounted store-local mismatch = %v", mm)
	}

	// Span without its counter: the trace side drifted — and a node the
	// counters never heard of is flagged too.
	short := map[string]NodeCounters{"n1": {"cluster_owned_local_total": 1, "cluster_forward_total": 1}}
	mm = check.Reconcile(short)
	found := false
	for _, m := range mm {
		if strings.Contains(m, "n2: spans from a node with no counters") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-node mismatch not reported: %v", mm)
	}
	if check.Healthy(short) {
		t.Fatal("Healthy true despite reconciliation mismatches")
	}
}

// TestReconcileEveryTracedRoute holds each traced row of the route
// table: a matching count reconciles, and a span its counter missed
// gives exactly one mismatch, naming the row's path and family.
func TestReconcileEveryTracedRoute(t *testing.T) {
	traced := 0
	for _, row := range routes {
		if row.span == "" {
			continue
		}
		traced++
		check := TraceCheck{PerNode: map[string]map[string]int64{"n1": {row.span: 1}}}
		if mm := check.Reconcile(map[string]NodeCounters{"n1": {row.family: 1}}); len(mm) != 0 {
			t.Errorf("%s: matching count gives %v", row.span, mm)
		}
		want := fmt.Sprintf("n1: trace has 1 %s spans, %s is 0", row.span, row.family)
		if mm := check.Reconcile(map[string]NodeCounters{"n1": {}}); len(mm) != 1 || mm[0] != want {
			t.Errorf("%s: uncounted span gives %q, want [%q]", row.span, mm, want)
		}
	}
	if traced != 8 {
		t.Fatalf("%d routes carry a span, want 8", traced)
	}
}

func TestFormatVerdictLines(t *testing.T) {
	check := AnalyzeSpans([]obs.ReqSpan{sp("r1", "n1", obs.PathOwned, withServe(7))})
	counters := map[string]NodeCounters{"n1": {"cluster_owned_local_total": 1}}
	out := check.Format(counters, 3)
	for _, want := range []string{
		"capstat: 1 requests, 1 spans",
		"node n1: owned=1",
		"r1 n1->n1 owned hops=1 serve=7us",
		"invariants: all chains terminate at exactly one serving node",
		"accounting: trace reconciles exactly with routing counters",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	bad := check.Format(map[string]NodeCounters{"n1": {}}, 0)
	if !strings.Contains(bad, "MISMATCH: ") || strings.Contains(bad, "reconciles exactly") {
		t.Fatalf("mismatch report wrong:\n%s", bad)
	}
}
