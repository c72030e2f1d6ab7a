package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Trace analysis (the capstat core, shared by cmd/capstat and the
// fault harness's reconciliation gate). The input is the merged
// request spans of every node's trace file; the output is per-request
// hop chains, per-path accounting, and the invariant violations. The
// accounting is exact, not statistical: spans are emitted at the same
// program points the routing counters increment, so Reconcile demands
// equality, and any drift between the two is a bug in the router.

// HedgeWinPath is the synthetic accounting row for forward spans won
// by the hedged request (ReqSpan.Hedge == 1). It is not a span path —
// it reconciles against cluster_hedge_wins_total.
const HedgeWinPath = "hedge_win"

// Chain is one request's reconstructed cross-node journey.
type Chain struct {
	// ID is the request's trace ID.
	ID string `json:"id"`
	// Origin is the node that minted the ID and routed the request.
	Origin string `json:"origin"`
	// Served is the node that answered the client: the origin itself
	// (owned, store-local, degraded) or the winning peer.
	Served string `json:"served"`
	// Path is the terminal path: owned, store-local, forward or
	// degraded.
	Path string `json:"path"`
	// Hops is the number of spans the request left across the cluster.
	Hops int `json:"hops"`
	// Spans is the request's spans in analysis order (origin spans
	// first, then remote spans by node).
	Spans []obs.ReqSpan `json:"spans"`
	// ServeUS is the slowest local serve in the chain, the analyzer's
	// latency attribution for the request (wall-clock measurement;
	// structure is deterministic, this field is not).
	ServeUS int64 `json:"serve_us"`
}

// TraceCheck is the analyzer's verdict over one set of trace files.
type TraceCheck struct {
	// Requests is the number of distinct trace IDs.
	Requests int `json:"requests"`
	// Spans is the total span count.
	Spans int `json:"spans"`
	// ByPath counts spans per path cluster-wide, plus HedgeWinPath.
	ByPath map[string]int64 `json:"by_path"`
	// PerNode counts spans per path per emitting node, plus
	// HedgeWinPath; this is the side Reconcile holds against the
	// routing counters.
	PerNode map[string]map[string]int64 `json:"per_node"`
	// Chains holds every request's journey, sorted by ID.
	Chains []Chain `json:"chains"`
	// Violations lists every invariant breach, sorted; an empty list
	// is the pass verdict.
	Violations []string `json:"violations"`
}

// AnalyzeSpans groups request spans into chains and checks the trace
// invariants:
//
//   - every span carries a known path code;
//   - a request's origin spans (owned, store-local, forward, hedge,
//     retry, degraded) all name one node — the origin;
//   - a request terminates at exactly one serving span: an owned span,
//     a store-local span, a degraded span, or a forward span with a
//     winner — and an owned or store-local terminal is exclusive (such
//     a request never forwards, and no other node serves it);
//   - at most one forward span per request, and hedge/retry/degraded
//     spans only accompany a forward span;
//   - a degraded span requires its forward span to be winnerless, and
//     a winning forward forbids one;
//   - a hedge-won forward requires a hedge span;
//   - remote spans appear only on nodes the origin actually targeted
//     (forward owner, hedge peer, retry peer, or recorded winner), and
//     never on the origin itself — which makes every chain acyclic.
func AnalyzeSpans(spans []obs.ReqSpan) TraceCheck {
	check := TraceCheck{
		Spans:   len(spans),
		ByPath:  make(map[string]int64),
		PerNode: make(map[string]map[string]int64),
	}
	count := func(node, path string) {
		check.ByPath[path]++
		per := check.PerNode[node]
		if per == nil {
			per = make(map[string]int64)
			check.PerNode[node] = per
		}
		per[path]++
	}
	violate := func(format string, args ...any) {
		check.Violations = append(check.Violations, fmt.Sprintf(format, args...))
	}

	byID := make(map[string][]obs.ReqSpan)
	ids := make([]string, 0)
	for _, sp := range spans {
		if _, ok := byID[sp.ID]; !ok {
			ids = append(ids, sp.ID)
		}
		byID[sp.ID] = append(byID[sp.ID], sp)
	}
	sort.Strings(ids)
	check.Requests = len(ids)

	for _, id := range ids {
		group := byID[id]
		var owned, storeLocal, forward, degraded []obs.ReqSpan
		var hedges, retries, remotes []obs.ReqSpan
		origin := ""
		originConflict := false
		for _, sp := range group {
			switch sp.Path {
			case obs.PathOwned:
				owned = append(owned, sp)
			case obs.PathStoreLocal:
				storeLocal = append(storeLocal, sp)
			case obs.PathForward:
				forward = append(forward, sp)
			case obs.PathHedge:
				hedges = append(hedges, sp)
			case obs.PathRetry:
				retries = append(retries, sp)
			case obs.PathDegraded:
				degraded = append(degraded, sp)
			case obs.PathRemote:
				remotes = append(remotes, sp)
				count(sp.Node, sp.Path)
				continue
			default:
				violate("request %s: unknown span path %q on %s", id, sp.Path, sp.Node)
				continue
			}
			count(sp.Node, sp.Path)
			if sp.Hedge == 1 && sp.Path == obs.PathForward {
				count(sp.Node, HedgeWinPath)
			}
			if origin == "" {
				origin = sp.Node
			} else if sp.Node != origin {
				originConflict = true
			}
		}
		if originConflict {
			violate("request %s: origin spans name more than one node", id)
		}
		if len(owned) > 1 || len(storeLocal) > 1 || len(forward) > 1 || len(degraded) > 1 {
			violate("request %s: duplicate origin span (owned %d, store-local %d, forward %d, degraded %d)",
				id, len(owned), len(storeLocal), len(forward), len(degraded))
		}
		if len(owned) > 0 && len(group) > len(owned) {
			violate("request %s: owned terminal is not exclusive (%d extra spans)",
				id, len(group)-len(owned))
		}
		if len(storeLocal) > 0 && len(group) > len(storeLocal) {
			violate("request %s: store-local terminal is not exclusive (%d extra spans)",
				id, len(group)-len(storeLocal))
		}
		if len(forward) == 0 && (len(hedges) > 0 || len(retries) > 0 || len(degraded) > 0) {
			violate("request %s: hedge/retry/degraded spans without a forward span", id)
		}

		// Exactly one terminal serving span.
		terminals := len(owned) + len(storeLocal) + len(degraded)
		winner := ""
		if len(forward) == 1 {
			winner = forward[0].Winner
			if winner != "" {
				terminals++
			}
			if winner != "" && len(degraded) > 0 {
				violate("request %s: degraded span after a winning forward", id)
			}
			if winner == "" && len(degraded) == 0 {
				violate("request %s: winnerless forward without a degraded span", id)
			}
			if forward[0].Hedge == 1 && len(hedges) == 0 {
				violate("request %s: hedge-won forward without a hedge span", id)
			}
		}
		if terminals != 1 {
			violate("request %s: %d terminal serving spans, want exactly 1", id, terminals)
		}

		// Remote spans only on targeted peers, never the origin.
		targets := make(map[string]bool)
		if len(forward) == 1 {
			targets[forward[0].Peer] = true
			if winner != "" {
				targets[winner] = true
			}
		}
		for _, sp := range hedges {
			targets[sp.Peer] = true
		}
		for _, sp := range retries {
			targets[sp.Peer] = true
		}
		for _, sp := range remotes {
			if sp.Node == origin {
				violate("request %s: remote span on its own origin %s (routing loop)", id, origin)
			} else if !targets[sp.Node] {
				violate("request %s: remote span on untargeted node %s", id, sp.Node)
			}
		}

		// The chain, regardless of violations: capstat reports what the
		// trace says even when the trace is inconsistent.
		chain := Chain{ID: id, Origin: origin, Hops: len(group)}
		chain.Spans = append(chain.Spans, owned...)
		chain.Spans = append(chain.Spans, storeLocal...)
		chain.Spans = append(chain.Spans, forward...)
		chain.Spans = append(chain.Spans, hedges...)
		chain.Spans = append(chain.Spans, retries...)
		chain.Spans = append(chain.Spans, degraded...)
		sort.SliceStable(remotes, func(a, b int) bool { return remotes[a].Node < remotes[b].Node })
		chain.Spans = append(chain.Spans, remotes...)
		switch {
		case len(owned) > 0:
			chain.Path, chain.Served = obs.PathOwned, origin
		case len(storeLocal) > 0:
			chain.Path, chain.Served = obs.PathStoreLocal, origin
		case len(degraded) > 0:
			chain.Path, chain.Served = obs.PathDegraded, origin
		case winner != "":
			chain.Path, chain.Served = obs.PathForward, winner
		}
		for _, sp := range chain.Spans {
			if sp.ServeUS > chain.ServeUS {
				chain.ServeUS = sp.ServeUS
			}
		}
		check.Chains = append(check.Chains, chain)
	}
	sort.Strings(check.Violations)
	return check
}

// Reconcile holds the trace-derived per-node accounting against the
// routing counters and returns every mismatch. Every row of routes
// that carries a span is checked, and equality is exact in both
// directions: a span without its counter increment is as much a bug
// as an increment without its span.
func (c TraceCheck) Reconcile(counters map[string]NodeCounters) []string {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var mismatches []string
	for _, name := range names {
		for _, row := range routes {
			if row.span == "" {
				continue
			}
			traced := c.PerNode[name][row.span]
			if counted := counters[name][row.family]; traced != counted {
				mismatches = append(mismatches,
					fmt.Sprintf("%s: trace has %d %s spans, %s is %d",
						name, traced, row.span, row.family, counted))
			}
		}
	}
	// A node that emitted spans but has no counters at all is itself a
	// mismatch (a trace file from outside the cluster under test).
	for node := range c.PerNode {
		if _, ok := counters[node]; !ok {
			mismatches = append(mismatches, fmt.Sprintf("%s: spans from a node with no counters", node))
		}
	}
	sort.Strings(mismatches)
	return mismatches
}

// TopSlow returns the k slowest chains by local serve time,
// descending, ties broken by ID so the report is deterministic for
// identical timings.
func (c TraceCheck) TopSlow(k int) []Chain {
	chains := append([]Chain(nil), c.Chains...)
	sort.SliceStable(chains, func(a, b int) bool {
		if chains[a].ServeUS != chains[b].ServeUS {
			return chains[a].ServeUS > chains[b].ServeUS
		}
		return chains[a].ID < chains[b].ID
	})
	if k > len(chains) {
		k = len(chains)
	}
	return chains[:k]
}

// Format renders the analyzer's human-readable report: cluster-wide
// accounting, per-node rows, the slowest chains, and either the
// violation list or the reconciliation verdict.
func (c TraceCheck) Format(counters map[string]NodeCounters, topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "capstat: %d requests, %d spans\n", c.Requests, c.Spans)
	var paths []string
	for _, row := range routes {
		if row.span != "" {
			paths = append(paths, row.span)
		}
	}
	for _, p := range paths {
		fmt.Fprintf(&b, "  %-11s %d\n", p, c.ByPath[p])
	}
	nodes := make([]string, 0, len(c.PerNode))
	for node := range c.PerNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		fmt.Fprintf(&b, "node %s:", node)
		for _, p := range paths {
			if v := c.PerNode[node][p]; v != 0 {
				fmt.Fprintf(&b, " %s=%d", p, v)
			}
		}
		b.WriteByte('\n')
	}
	if topK > 0 {
		fmt.Fprintf(&b, "slowest %d:\n", topK)
		for _, ch := range c.TopSlow(topK) {
			fmt.Fprintf(&b, "  %s %s->%s %s hops=%d serve=%dus\n",
				ch.ID, ch.Origin, ch.Served, ch.Path, ch.Hops, ch.ServeUS)
		}
	}
	for _, v := range c.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	if len(c.Violations) == 0 {
		fmt.Fprintf(&b, "invariants: all chains terminate at exactly one serving node\n")
	}
	if counters != nil {
		if mismatches := c.Reconcile(counters); len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintf(&b, "MISMATCH: %s\n", m)
			}
		} else {
			fmt.Fprintf(&b, "accounting: trace reconciles exactly with routing counters\n")
		}
	}
	return b.String()
}

// Healthy reports the overall verdict: no violations and (when
// counters were supplied) exact reconciliation.
func (c TraceCheck) Healthy(counters map[string]NodeCounters) bool {
	return len(c.Violations) == 0 && (counters == nil || len(c.Reconcile(counters)) == 0)
}
