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
// cluster` and TestHarnessKillRestartRun: it boots a three-member
// Testbed (every member wired by StartProc, as capserverd wires one,
// all sharing one casstore directory), replays a seeded workload
// against it while killing and restarting a member mid-run, and checks
// the two properties the cluster design promises:
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
// The scenario is fixed (harnessRequests and computeFault); the seed
// picks the workload and the per-request dispatch, so a failing run is
// replayable bit-for-bit.

// harnessNodes are the compute and session harnesses' members.
var harnessNodes = []string{"n1", "n2", "n3"}

// The compute scenario: 90 requests over 8 points per endpoint, every
// bounds point carrying exact_n=9, on members with 2 workers each. An
// exact_n=9 compute takes 10-20 ms on a 2-vCPU VM, above the 5 ms
// hedge delay, so forwarded cold computes hedge (an exact_n=8 compute
// takes about 3 ms, and at that size 4 of 10 runs fired no hedge); the
// hedge delay is above the primary's whole retry budget against a dead
// peer (sub-ms refusals plus the 1 ms peer backoff), so a dead owner
// degrades to local compute instead of being absorbed by the hedge.
const (
	harnessRequests = 90
	harnessUnique   = 8
	harnessExactN   = 9
	harnessWorkers  = 2
	harnessHedge    = 5 * time.Millisecond
	// peerBackoff is every harness member's retry backoff base.
	peerBackoff = time.Millisecond
)

// computeFault kills n2 before request 30 and restarts it before
// request 60.
var computeFault = fault{node: "n2", kill: 30, restart: 60}

// HarnessOptions configures a cluster fault-harness run.
type HarnessOptions struct {
	// Seed drives both the request plan and the dispatch sequence.
	Seed uint64
	// TraceDir, when set, receives each member's merged trace as
	// <dir>/<member>.jsonl and the per-member routing counters as
	// <dir>/counters.json — the capstat CLI's input.
	TraceDir string
	// Out receives progress lines (nil: discarded).
	Out io.Writer
}

// orDiscard is w, or io.Discard when w is nil.
func orDiscard(w io.Writer) io.Writer {
	if w == nil {
		return io.Discard
	}
	return w
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
	Failovers    int         `json:"failovers"`
	Mismatches   int         `json:"mismatches"`
	Status       map[int]int `json:"-"`
	DegradedSeen int         `json:"degraded_seen"` // responses carrying X-Capserver-Degraded
	HedgedSeen   int         `json:"hedged_seen"`   // responses carrying X-Capserver-Hedge
	ForwardSeen  int         `json:"forward_seen"`  // responses carrying X-Capserver-Peer
	// OutsideWindow counts the requests outside the kill window that
	// failed over or came back degraded: with every member up, nothing
	// should.
	OutsideWindow int `json:"outside_window"`

	Nodes       map[string]NodeCounters `json:"nodes"`
	Convergence Convergence             `json:"convergence"`

	// Trace is the capstat verdict over the run's merged spans, and
	// TraceMismatches its reconciliation against the routing counters —
	// both must be clean for Assert to pass.
	Trace           TraceCheck `json:"trace"`
	TraceMismatches []string   `json:"trace_mismatches,omitempty"`

	StoreEntries int           `json:"store_entries"`
	Wall         time.Duration `json:"-"`
}

// Totals sums the per-member counts.
func (r *HarnessReport) Totals() NodeCounters { return sumCounts(r.Nodes) }

// Format renders the report for humans.
func (r *HarnessReport) Format(w io.Writer) {
	fmt.Fprintf(w, "requests:   %d in %v, %d failovers, %d mismatches\n",
		harnessRequests, r.Wall.Round(time.Millisecond), r.Failovers, r.Mismatches)
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
	f := computeFault
	fmt.Fprintf(w, "fault:      killed %s before request %d, restarted before request %d; %d requests outside that window failed over or degraded\n",
		f.node, f.kill, f.restart, r.OutsideWindow)
	formatCounts(w, r.Nodes, routeOwned, routeSessionOwned)
	fmt.Fprintf(w, "trace:      %d requests, %d spans, %d violations, %d counter mismatches\n",
		r.Trace.Requests, r.Trace.Spans, len(r.Trace.Violations), len(r.TraceMismatches))
	c := r.Convergence
	fmt.Fprintf(w, "convergence: %d paths -> %d store, %d hit, %d recomputed, %d errors\n",
		c.Paths, c.StoreHits, c.CacheHits, c.Recomputed, c.Errors)
	fmt.Fprintf(w, "store:      %d entries\n", r.StoreEntries)
}

// Assert is the acceptance gate for `capload -mode cluster -assert`:
// byte identity must hold for every response; the fault machinery must
// have engaged (a client failover, and forward, store-local, hedge,
// retry and degraded counters all nonzero) and only inside the kill
// window; the shared store must hold entries, and the restarted node
// must be pure cache traffic; and the trace must hold spans from the
// killed member and every chain invariant, and reconcile exactly with
// the routing counters.
func (r *HarnessReport) Assert() error {
	var fails []string
	if r.Mismatches != 0 {
		fails = append(fails, fmt.Sprintf("%d responses differ from the single-node oracle", r.Mismatches))
	}
	if r.Failovers == 0 {
		fails = append(fails, "no client failover despite a dead member in the dispatch rotation")
	}
	if r.OutsideWindow != 0 {
		fails = append(fails, fmt.Sprintf("%d requests outside the kill window [%d, %d) failed over or degraded",
			r.OutsideWindow, computeFault.kill, computeFault.restart))
	}
	t := r.Totals()
	for _, need := range []struct {
		route route
		fail  string
	}{
		{routeForward, "no request was ever forwarded (dispatch never crossed shards?)"},
		{routeStoreLocal, "no non-owned request was served from the shared store at its origin"},
		{routeHedge, "no hedged request fired"},
		{routeRetry, "no peer attempt to the killed node was retried"},
		{routeDegraded, "no request degraded to local compute while its owner was down"},
	} {
		if t[routes[need.route].family] == 0 {
			fails = append(fails, need.fail)
		}
	}
	if r.StoreEntries == 0 {
		fails = append(fails, "the shared store is empty after the run")
	}
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
	if r.Trace.Spans == 0 {
		fails = append(fails, "no span was recorded")
	}
	// The killed member's two incarnations merge under one name.
	if len(r.Trace.PerNode[computeFault.node]) == 0 {
		fails = append(fails, fmt.Sprintf("no span from the killed member %s", computeFault.node))
	}
	for _, v := range r.Trace.Violations {
		fails = append(fails, "trace invariant: "+v)
	}
	for _, m := range r.TraceMismatches {
		fails = append(fails, "trace/counter mismatch: "+m)
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

// RunHarness executes the cluster fault-harness scenario.
func RunHarness(o HarnessOptions) (*HarnessReport, error) {
	out := orDiscard(o.Out)
	storeDir, err := os.MkdirTemp("", "capcluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	srvCfg := capserver.Config{Workers: harnessWorkers}

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
	tb, err := StartTestbed(harnessNodes, func(name string, incarnation int) ProcConfig {
		// The incarnation number seeds its trace IDs: a restart resets
		// the per-node sequence, and a distinct seed is what keeps the
		// new incarnation's IDs disjoint from the old.
		t := traceBuf{buf: &bytes.Buffer{}}
		t.tracer = obs.NewTracer(t.buf)
		traces[name] = append(traces[name], t)
		return ProcConfig{
			Server:   srvCfg,
			StoreDir: storeDir,
			Cluster: Config{
				HedgeDelay:  harnessHedge,
				PeerBackoff: peerBackoff,
				Tracer:      t.tracer,
				TraceSeed:   uint64(incarnation + 1),
			},
		}
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	f := computeFault

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
		Requests: harnessRequests,
		Seed:     o.Seed,
		Unique:   harnessUnique,
		ExactN:   harnessExactN,
	})
	if err := missKillWindow(plan, tb.Proc(f.node).Node.Ring(), oracle.Server); err != nil {
		return nil, err
	}

	report := &HarnessReport{Status: make(map[int]int)}
	dispatch := rng.NewStream(o.Seed, 0xd15)
	var servedPaths []string
	seenPath := make(map[string]bool)

	start := time.Now()
	for i, req := range plan {
		if err := f.advance(tb, i, "request", out); err != nil {
			return nil, err
		}
		resp, failovers, err := tb.Send(dispatch, http.MethodGet, req.Path, nil)
		report.Failovers += failovers
		stray := failovers > 0
		if err == nil {
			stray = stray || resp.Header.Get(DegradedHeader) != ""
		}
		if stray && !f.downAt(i) {
			report.OutsideWindow++
			fmt.Fprintf(out, "request %d: failed over or degraded with every member up\n", i)
		}
		if err != nil {
			report.Mismatches++
			fmt.Fprintf(out, "request %d: every node refused %s: %v\n", i, req.Path, err)
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
			fmt.Fprintf(out, "request %d: %s: status %d, body diverges from oracle\n", i, req.Path, resp.StatusCode)
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
	report.Convergence.Paths = len(servedPaths)
	for _, path := range servedPaths {
		hreq, err := http.NewRequest(http.MethodGet, tb.URL(f.node)+path, nil)
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

	// Quiesce before reading counters and spans: a hedge loser or
	// backoff-waiting retry goroutine can increment its counter and
	// emit its span microseconds after the client already has the
	// response, and trace reconciliation demands both sides of every
	// such pair land in the snapshot. The settle bounds those
	// stragglers (their contexts are canceled; backoffs are
	// milliseconds); the graceful shutdown then drains every
	// still-running handler so nothing races the collection.
	time.Sleep(300 * time.Millisecond)
	if err := tb.Close(); err != nil {
		return nil, err
	}

	report.Nodes = memberCounts(tb, routeOwned, routeSessionOwned)

	// Merge each member's incarnation traces, analyze, and reconcile
	// against the counters just read.
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
	report.Trace = AnalyzeSpans(allSpans)
	report.TraceMismatches = report.Trace.Reconcile(report.Nodes)
	if o.TraceDir != "" {
		if err := writeTraceDir(o.TraceDir, merged, report.Nodes); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: wrote %d per-node files and counters.json to %s\n", len(merged), o.TraceDir)
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
func missKillWindow(plan []capserver.PlannedRequest, ring *Ring, srv *capserver.Server) error {
	f := computeFault
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
		if key, ok := canon(req.Path); !ok || ring.Owner(key) != f.node {
			continue
		}
		for ; ; j++ {
			if j == grid {
				return fmt.Errorf("cluster: no fresh bounds point owned by %s for the kill window", f.node)
			}
			path := fmt.Sprintf("/v1/bounds?n=6&pd=%g&pi=0.05&exact_n=%d", float64(j)/grid, harnessExactN)
			key, ok := canon(path)
			if ok && !used[key] && ring.Owner(key) == f.node {
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
