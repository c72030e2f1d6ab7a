package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/capserver"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file is the multi-node fault harness behind `capload -mode
// cluster` and `make trace-cluster-smoke`: it boots an N-node Testbed
// (every member wired by StartProc, as capserverd wires one, all sharing
// one casstore directory), replays a seeded workload against it while
// killing and restarting a node mid-run, and checks the two properties
// the cluster design promises:
//
//   - byte identity: every response body equals what a single plain
//     capserver (the oracle) produces for the same path, regardless of
//     which node served it, whether it was forwarded, hedged, or
//     degraded;
//   - convergence: after the killed node restarts over the shared
//     store, re-issuing the run's unique paths against it directly is
//     pure cache traffic (LRU hit or store hit) — the cluster never
//     recomputes a point it has already computed anywhere.
//
// The workload, the per-request dispatch choice, and the kill/restart
// schedule are pure functions of the options, so a failing run is
// replayable bit-for-bit.

// HarnessOptions configures a cluster fault-harness run.
type HarnessOptions struct {
	// Nodes are the member names (default n1, n2, n3).
	Nodes []string
	// Requests is the workload length (default 200).
	Requests int
	// Seed drives both the request plan and the dispatch sequence
	// (default 1).
	Seed uint64
	// Unique is the number of distinct parameter points per endpoint
	// (default 12).
	Unique int
	// ExactN makes bounds misses pay a real exact-enumeration compute
	// (default 8, ~40ms — long enough that a forwarded cold compute
	// always outlives the hedge delay).
	ExactN int
	// KillNode is the member to kill (default the second node in
	// sorted order). Ignored when KillAfter < 0.
	KillNode string
	// KillAfter kills KillNode just before issuing this request index
	// (default Requests/3). Negative disables the fault entirely.
	KillAfter int
	// RestartAfter restarts the killed node just before this request
	// index (default 2*Requests/3). Negative leaves it down.
	RestartAfter int
	// HedgeDelay for every node (default 5ms: far below a cold exact
	// compute, so forwarded cold computes always hedge — but above the
	// primary's full retry budget against a dead peer (sub-ms refusals
	// plus the 1ms peer backoff), so a dead owner deterministically
	// degrades to local compute instead of being absorbed by the
	// hedge). Negative disables hedging.
	HedgeDelay time.Duration
	// StoreDir is the shared result-store directory (default: a fresh
	// temp directory, removed when the run ends).
	StoreDir string
	// Workers, QueueDepth, CacheEntries configure each node's
	// capserver (defaults: 2, then capserver's 64 and 1024).
	Workers, QueueDepth, CacheEntries int
	// Trace turns on request tracing: every incarnation gets its own
	// tracer (seeded with its generation number, so a restart cannot
	// replay IDs), and the run ends by analyzing the merged spans and
	// reconciling them against the routing counters.
	Trace bool
	// TraceDir, when set, implies Trace and writes each member's
	// merged trace to <dir>/<member>.jsonl plus the per-member routing
	// counters to <dir>/counters.json — the capstat CLI's input.
	TraceDir string
	// Out receives progress lines (default: discard).
	Out io.Writer
}

// size is one count option of a harness; zero selects its default.
type size struct {
	name string
	v    int
}

// negativeSize returns an error naming the first negative size.
func negativeSize(sizes ...size) error {
	for _, s := range sizes {
		if s.v < 0 {
			return fmt.Errorf("cluster: %s %d is negative (0 selects the default)", s.name, s.v)
		}
	}
	return nil
}

// withDefaults fills unset fields and rejects a negative size.
func (o HarnessOptions) withDefaults() (HarnessOptions, error) {
	if err := negativeSize(size{"Requests", o.Requests}, size{"Unique", o.Unique}, size{"Workers", o.Workers}); err != nil {
		return o, err
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []string{"n1", "n2", "n3"}
	}
	if o.Requests == 0 {
		o.Requests = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Unique == 0 {
		o.Unique = 12
	}
	if o.ExactN == 0 {
		o.ExactN = 8
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 5 * time.Millisecond
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.TraceDir != "" {
		o.Trace = true
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o, nil
}

// NodeCounters is one member's routing counts, keyed by counter family
// (the names /metrics exposes) and summed across its incarnations (a
// killed-and-restarted node has two).
type NodeCounters map[string]int64

// memberCounts reads each member's counts of routes [lo, hi), summed
// over its incarnations.
func memberCounts(tb *Testbed, lo, hi route) map[string]NodeCounters {
	counts := make(map[string]NodeCounters, len(tb.Names))
	for _, name := range tb.Names {
		c := make(NodeCounters, hi-lo)
		for _, p := range tb.Incarnations(name) {
			for r := lo; r < hi; r++ {
				c[routes[r].family] += p.Node.Metrics().count(r)
			}
		}
		counts[name] = c
	}
	return counts
}

// sumCounts adds up the members' counts.
func sumCounts(nodes map[string]NodeCounters) NodeCounters {
	total := make(NodeCounters)
	for _, c := range nodes {
		for family, v := range c {
			total[family] += v
		}
	}
	return total
}

// formatCounts prints one line per member in name order, then the
// total, naming each count of routes [lo, hi) by its family without
// the cluster_ prefix and _total suffix.
func formatCounts(w io.Writer, nodes map[string]NodeCounters, lo, hi route) {
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	line := func(name string, c NodeCounters) {
		fmt.Fprintf(tw, "node %s", name)
		for r := lo; r < hi; r++ {
			family := routes[r].family
			fmt.Fprintf(tw, "\t%s=%d", strings.TrimSuffix(strings.TrimPrefix(family, "cluster_"), "_total"), c[family])
		}
		fmt.Fprintln(tw)
	}
	for _, name := range names {
		line(name, nodes[name])
	}
	line("total", sumCounts(nodes))
	tw.Flush()
}

// Convergence is the post-restart cache-convergence check: every
// unique path the run served, re-issued directly against the restarted
// node.
type Convergence struct {
	Paths      int `json:"paths"`
	StoreHits  int `json:"store_hits"`
	CacheHits  int `json:"cache_hits"`
	Recomputed int `json:"recomputed"`
	Errors     int `json:"errors"`
}

// HarnessReport aggregates one harness run.
type HarnessReport struct {
	Requests     int         `json:"requests"`
	Failovers    int         `json:"failovers"`
	Mismatches   int         `json:"mismatches"`
	Status       map[int]int `json:"-"`
	DegradedSeen int         `json:"degraded_seen"` // responses carrying X-Capserver-Degraded
	HedgedSeen   int         `json:"hedged_seen"`   // responses carrying X-Capserver-Hedge
	ForwardSeen  int         `json:"forward_seen"`  // responses carrying X-Capserver-Peer

	Killed    string `json:"killed,omitempty"`
	Restarted bool   `json:"restarted"`

	Nodes       map[string]NodeCounters `json:"nodes"`
	Convergence Convergence             `json:"convergence"`

	// Trace is the capstat verdict over the run's merged spans (traced
	// runs only), and TraceMismatches its reconciliation against the
	// routing counters — both must be clean for Assert to pass.
	Trace           *TraceCheck `json:"trace,omitempty"`
	TraceMismatches []string    `json:"trace_mismatches,omitempty"`

	StoreEntries int           `json:"store_entries"`
	Wall         time.Duration `json:"-"`
}

// Totals sums the per-member counts.
func (r *HarnessReport) Totals() NodeCounters { return sumCounts(r.Nodes) }

// Format renders the report for humans.
func (r *HarnessReport) Format(w io.Writer) {
	fmt.Fprintf(w, "requests:   %d in %v, %d failovers, %d mismatches\n",
		r.Requests, r.Wall.Round(time.Millisecond), r.Failovers, r.Mismatches)
	codes := make([]int, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "status %d: %d\n", c, r.Status[c])
	}
	fmt.Fprintf(w, "responses:  %d forwarded, %d hedged, %d degraded\n",
		r.ForwardSeen, r.HedgedSeen, r.DegradedSeen)
	if r.Killed != "" {
		fmt.Fprintf(w, "fault:      killed %s (restarted=%v)\n", r.Killed, r.Restarted)
	}
	formatCounts(w, r.Nodes, routeOwned, routeSessionOwned)
	if r.Trace != nil {
		fmt.Fprintf(w, "trace:      %d requests, %d spans, %d violations, %d counter mismatches\n",
			r.Trace.Requests, r.Trace.Spans, len(r.Trace.Violations), len(r.TraceMismatches))
	}
	if r.Restarted {
		c := r.Convergence
		fmt.Fprintf(w, "convergence: %d paths -> %d store, %d hit, %d recomputed, %d errors\n",
			c.Paths, c.StoreHits, c.CacheHits, c.Recomputed, c.Errors)
	}
	fmt.Fprintf(w, "store:      %d entries\n", r.StoreEntries)
}

// Assert is the acceptance gate for `capload -mode cluster -assert`:
// byte identity must hold for every response, the restarted node must
// be pure cache traffic, a non-owned key already in the shared store
// must have been served where it landed at least once (every harness
// run shares one store), and when a node was killed the fault
// machinery must actually have engaged (hedge, retry and degraded
// counters all nonzero).
func (r *HarnessReport) Assert() error {
	var fails []string
	if r.Mismatches != 0 {
		fails = append(fails, fmt.Sprintf("%d responses differ from the single-node oracle", r.Mismatches))
	}
	t := r.Totals()
	if t[routes[routeForward].family] == 0 {
		fails = append(fails, "no request was ever forwarded (dispatch never crossed shards?)")
	}
	if t[routes[routeStoreLocal].family] == 0 {
		fails = append(fails, "no non-owned request was served from the shared store at its origin")
	}
	if t[routes[routeHedge].family] == 0 {
		fails = append(fails, "no hedged request fired")
	}
	if r.Killed != "" {
		if t[routes[routeRetry].family] == 0 {
			fails = append(fails, "node killed but no peer attempt was retried")
		}
		if t[routes[routeDegraded].family] == 0 {
			fails = append(fails, "node killed but no request degraded to local compute")
		}
	}
	if r.Restarted {
		c := r.Convergence
		if c.Paths == 0 {
			fails = append(fails, "convergence check ran over zero paths")
		}
		if c.Recomputed != 0 {
			fails = append(fails, fmt.Sprintf("restarted node recomputed %d already-computed points", c.Recomputed))
		}
		if c.Errors != 0 {
			fails = append(fails, fmt.Sprintf("%d convergence probes failed", c.Errors))
		}
	}
	if r.Trace != nil {
		if r.Trace.Spans == 0 {
			fails = append(fails, "tracing was on but no span was recorded")
		}
		for _, v := range r.Trace.Violations {
			fails = append(fails, "trace invariant: "+v)
		}
		for _, m := range r.TraceMismatches {
			fails = append(fails, "trace/counter mismatch: "+m)
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("cluster: harness assertions failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// traceBuf is one incarnation's tracer and the buffer it writes to.
type traceBuf struct {
	tracer *obs.Tracer
	buf    *bytes.Buffer
}

// peerBackoff is every harness member's retry backoff base (see
// HarnessOptions.HedgeDelay).
const peerBackoff = time.Millisecond

// RunHarness executes a cluster fault-harness run.
func RunHarness(o HarnessOptions) (*HarnessReport, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	storeDir := o.StoreDir
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "capcluster-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	srvCfg := capserver.Config{
		Workers:      o.Workers,
		QueueDepth:   o.QueueDepth,
		CacheEntries: o.CacheEntries,
	}

	// The oracle: one plain capserver, no cluster, no store. Its
	// bodies are the ground truth every cluster response must match.
	// Started first so it shuts down after the testbed has closed the
	// client side's idle connections.
	oracleLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	oracle, err := StartProc(oracleLis, ProcConfig{Server: srvCfg})
	if err != nil {
		return nil, err
	}
	defer oracle.Shutdown(context.Background())

	// traces holds every incarnation's span buffer, in incarnation
	// order, so the report merges a member's whole history.
	traces := make(map[string][]traceBuf)
	tb, err := StartTestbed(o.Nodes, func(name string, incarnation int) ProcConfig {
		cfg := ProcConfig{
			Server:   srvCfg,
			StoreDir: storeDir,
			Cluster:  Config{HedgeDelay: o.HedgeDelay, PeerBackoff: peerBackoff},
		}
		if o.Trace {
			// The incarnation number seeds its trace IDs: a restart
			// resets the per-node sequence, and a distinct seed is what
			// keeps the new incarnation's IDs disjoint from the old.
			t := traceBuf{buf: &bytes.Buffer{}}
			t.tracer = obs.NewTracer(t.buf)
			traces[name] = append(traces[name], t)
			cfg.Cluster.Tracer = t.tracer
			cfg.Cluster.TraceSeed = uint64(incarnation + 1)
		}
		return cfg
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	fault, err := Fault{Node: o.KillNode, KillAt: o.KillAfter, RestartAt: o.RestartAfter}.resolve(tb.Names, o.Requests)
	if err != nil {
		return nil, err
	}

	oracleBodies := make(map[string][]byte)
	oracleBody := func(path string) ([]byte, error) {
		if b, ok := oracleBodies[path]; ok {
			return b, nil
		}
		resp, err := tb.Client.Get(oracle.URL() + path)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("oracle %s: status %d", path, resp.StatusCode)
		}
		oracleBodies[path] = b
		return b, nil
	}

	plan := capserver.PlanPaths(capserver.LoadOptions{
		Requests: o.Requests,
		Seed:     o.Seed,
		Unique:   o.Unique,
		ExactN:   o.ExactN,
	})
	if err := missKillWindow(plan, fault, tb.Proc(fault.Node).Node.Ring(), oracle.Server, o.ExactN); err != nil {
		return nil, err
	}

	report := &HarnessReport{Requests: len(plan), Status: make(map[int]int)}
	dispatch := rng.NewStream(o.Seed, 0xd15)
	var servedPaths []string
	seenPath := make(map[string]bool)

	start := time.Now()
	for i, req := range plan {
		if fault.killsAt(i) {
			tb.Kill(fault.Node)
			report.Killed = fault.Node
			fmt.Fprintf(o.Out, "request %d: killed %s (%s)\n", i, fault.Node, tb.Proc(fault.Node).Addr)
		}
		if fault.restartsAt(i) {
			if err := tb.Restart(fault.Node); err != nil {
				return nil, err
			}
			report.Restarted = true
			fmt.Fprintf(o.Out, "request %d: restarted %s (%s) cold over the shared store\n", i, fault.Node, tb.Proc(fault.Node).Addr)
		}

		resp, failovers, err := tb.Send(dispatch, http.MethodGet, req.Path, nil)
		report.Failovers += failovers
		if err != nil {
			report.Mismatches++
			fmt.Fprintf(o.Out, "request %d: every node refused %s: %v\n", i, req.Path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			report.Mismatches++
			continue
		}
		report.Status[resp.StatusCode]++
		if resp.Header.Get(PeerHeader) != "" {
			report.ForwardSeen++
		}
		if resp.Header.Get(HedgeHeader) != "" {
			report.HedgedSeen++
		}
		if resp.Header.Get(DegradedHeader) != "" {
			report.DegradedSeen++
		}
		want, err := oracleBody(req.Path)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK || string(body) != string(want) {
			report.Mismatches++
			fmt.Fprintf(o.Out, "request %d: %s: status %d, body diverges from oracle\n", i, req.Path, resp.StatusCode)
			continue
		}
		if !seenPath[req.Path] {
			seenPath[req.Path] = true
			servedPaths = append(servedPaths, req.Path)
		}
	}
	report.Wall = time.Since(start)

	// Convergence: the restarted node, asked directly (pre-routed so
	// it cannot forward), must serve every path the run computed from
	// its LRU or the shared store — never by recomputing.
	if report.Restarted {
		report.Convergence.Paths = len(servedPaths)
		for _, path := range servedPaths {
			hreq, err := http.NewRequest(http.MethodGet, tb.URL(fault.Node)+path, nil)
			if err != nil {
				return nil, err
			}
			hreq.Header.Set(ForwardedHeader, "harness")
			resp, err := tb.Client.Do(hreq)
			if err != nil {
				report.Convergence.Errors++
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				report.Convergence.Errors++
				continue
			}
			switch resp.Header.Get("X-Capserver-Cache") {
			case "store":
				report.Convergence.StoreHits++
			case "hit":
				report.Convergence.CacheHits++
			default:
				report.Convergence.Recomputed++
			}
		}
	}

	// Quiesce before reading counters and spans: a hedge loser or
	// backoff-waiting retry goroutine can increment its counter and
	// emit its span microseconds after the client already has the
	// response, and trace reconciliation demands both sides of every
	// such pair land in the snapshot. On traced runs the settle bounds
	// those stragglers (their contexts are canceled; backoffs are
	// milliseconds); the graceful shutdown then drains every
	// still-running handler so nothing races the collection.
	if o.Trace {
		time.Sleep(300 * time.Millisecond)
	}
	if err := tb.Close(); err != nil {
		return nil, err
	}

	report.Nodes = memberCounts(tb, routeOwned, routeSessionOwned)

	// Merge each member's incarnation traces, analyze, and reconcile
	// against the counters just read.
	if o.Trace {
		merged := make(map[string][]byte, len(tb.Names))
		var allSpans []obs.ReqSpan
		for _, name := range tb.Names {
			var buf bytes.Buffer
			for _, t := range traces[name] {
				if err := t.tracer.Flush(); err != nil {
					return nil, fmt.Errorf("cluster: flushing %s trace: %v", name, err)
				}
				buf.Write(t.buf.Bytes())
			}
			merged[name] = append([]byte(nil), buf.Bytes()...)
			spans, err := obs.ReadReqSpans(&buf)
			if err != nil {
				return nil, fmt.Errorf("cluster: parsing %s trace: %v", name, err)
			}
			allSpans = append(allSpans, spans...)
		}
		check := AnalyzeSpans(allSpans)
		report.Trace = &check
		report.TraceMismatches = check.Reconcile(report.Nodes)
		if o.TraceDir != "" {
			if err := writeTraceDir(o.TraceDir, merged, report.Nodes); err != nil {
				return nil, err
			}
			fmt.Fprintf(o.Out, "trace: wrote %d per-node files and counters.json to %s\n", len(merged), o.TraceDir)
		}
	}

	if n, err := tb.Proc(tb.Names[0]).Store.Len(); err == nil {
		report.StoreEntries = n
	}
	return report, nil
}

// missKillWindow rewrites the plan's kill window in place: every
// request whose key the killed node owns becomes a fresh bounds point
// that the killed node also owns and that no other request names. An
// origin serves a non-owned key the shared store already holds without
// a hop, so in a plan that repeats its points every such request would
// be a store hit by the time of the kill, and none would reach the dead
// owner. A fresh point is a store miss that must, which is what makes
// the run exercise retry and degraded compute. srv canonicalizes the
// paths.
func missKillWindow(plan []capserver.PlannedRequest, f Fault, ring *Ring, srv *capserver.Server, exactN int) error {
	canon := func(path string) (string, bool) {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return "", false
		}
		return srv.Canonicalize(req)
	}
	used := make(map[string]bool, len(plan))
	for _, req := range plan {
		if key, ok := canon(req.Path); ok {
			used[key] = true
		}
	}
	const grid = 1000 // candidate pd values j/grid, 0 < j < grid
	j := 1
	for i, req := range plan {
		if !f.downAt(i) {
			continue
		}
		if key, ok := canon(req.Path); !ok || ring.Owner(key) != f.Node {
			continue
		}
		for ; ; j++ {
			if j == grid {
				return fmt.Errorf("cluster: no fresh bounds point owned by %s for the kill window", f.Node)
			}
			path := fmt.Sprintf("/v1/bounds?n=6&pd=%g&pi=0.05", float64(j)/grid)
			if exactN > 0 {
				path += fmt.Sprintf("&exact_n=%d", exactN)
			}
			key, ok := canon(path)
			if ok && !used[key] && ring.Owner(key) == f.Node {
				used[key] = true
				plan[i] = capserver.PlannedRequest{Endpoint: "bounds", Path: path}
				break
			}
		}
	}
	return nil
}

// writeTraceDir lays the run's traces out the way cmd/capstat ingests
// them: one JSONL trace per member plus the per-member routing
// counters, so `capstat -counters <dir>/counters.json <dir>/*.jsonl`
// replays exactly the reconciliation the harness just performed.
func writeTraceDir(dir string, traces map[string][]byte, counters map[string]NodeCounters) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range traces {
		if err := os.WriteFile(filepath.Join(dir, name+".jsonl"), data, 0o644); err != nil {
			return err
		}
	}
	body, err := json.MarshalIndent(counters, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "counters.json"), append(body, '\n'), 0o644)
}
