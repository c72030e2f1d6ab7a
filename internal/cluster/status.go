package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/health"
)

// Metrics federation (DESIGN.md §12). Any node answers
// GET /v1/cluster/status by probing every member — itself included,
// over the same HTTP path, so the answer does not depend on which node
// was asked — and merging the results into one deterministic snapshot:
// per-member counters, per-route latency quantiles, ring ownership
// arcs, and cluster-wide totals. A member that cannot answer within
// statusTimeout degrades the snapshot to partial; it never fails it.

// StatusPath is the federation endpoint every cluster node serves.
const StatusPath = "/v1/cluster/status"

// statusTimeout bounds each member probe of the status fan-out.
const statusTimeout = 2 * time.Second

// StatusSchema versions the snapshot format.
const StatusSchema = "capest/cluster-status/v1"

// ClusterStatus is the merged snapshot. Members sort by name, the
// maps marshal with sorted keys, and scrape-time-dependent series
// (the process_ self-metrics, the healthz/readyz probe counters the
// fan-out itself perturbs) are excluded, so the rendered JSON is
// byte-identical no matter which node was queried — modulo the Self
// field, which names the answering node.
type ClusterStatus struct {
	Schema string `json:"schema"`
	// Self is the node that assembled the snapshot: the one field a
	// consumer must ignore when diffing snapshots across nodes.
	Self string `json:"self"`
	// Partial reports that at least one member could not be probed;
	// its entry carries Healthy: false and no counters.
	Partial bool `json:"partial"`
	// RingPermille is each member's share of the key space, in tenths
	// of a percent — a pure function of the membership.
	RingPermille map[string]int64 `json:"ring_permille"`
	// Totals sums every cluster_ routing counter across reachable
	// members (cluster_degraded_total is the fleet's degraded total).
	Totals map[string]int64 `json:"totals"`
	// Alerts aggregates the members' health verdicts: counts of firing
	// and pending rules fleet-wide, plus the sorted set of rule names
	// firing anywhere. Per-member detail lives on each MemberStatus.
	Alerts  AlertSummary   `json:"alerts"`
	Members []MemberStatus `json:"members"`
}

// AlertSummary is the cluster-wide roll-up of member alert state.
type AlertSummary struct {
	Firing  int `json:"firing"`
	Pending int `json:"pending"`
	// FiringRules lists rule names firing on at least one member,
	// sorted and deduplicated.
	FiringRules []string `json:"firing_rules,omitempty"`
}

// MemberStatus is one member's slice of the snapshot.
type MemberStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Error is a stable classification ("unreachable", "bad metrics"),
	// never a raw error string — raw strings vary with probe timing and
	// would break cross-node byte identity.
	Error string `json:"error,omitempty"`
	// Counters holds the member's deterministic integer series, keyed
	// exactly as exposed ("cluster_forward_total",
	// `capserver_requests_total{endpoint="bounds",code="200"}`).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Routes summarizes per-endpoint latency (count, p50, p99).
	Routes []RouteLatency `json:"routes,omitempty"`
	// Alerts is the member's own health verdict, exactly as its
	// /v1/health/alerts endpoint serves it (rules sorted by name, so
	// the nested document keeps the snapshot's byte identity).
	Alerts *health.AlertsDoc `json:"alerts,omitempty"`
}

// RouteLatency is one endpoint's latency summary on one member.
type RouteLatency struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// serveStatus answers the federation endpoint.
func (n *Node) serveStatus(w http.ResponseWriter, r *http.Request) {
	st := n.clusterStatus(r.Context())
	body, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}

// clusterStatus probes every member concurrently and merges.
func (n *Node) clusterStatus(ctx context.Context) ClusterStatus {
	names := n.ring.Members()
	members := make([]MemberStatus, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			members[i] = n.probeMember(ctx, name, n.cfg.Membership.URL(name))
		}(i, name)
	}
	wg.Wait()

	st := ClusterStatus{
		Schema:       StatusSchema,
		Self:         n.cfg.Self,
		RingPermille: n.ring.OwnershipPermille(),
		Totals:       make(map[string]int64),
		Members:      members,
	}
	firing := make(map[string]bool)
	for _, m := range members {
		if !m.Healthy {
			st.Partial = true
			continue
		}
		for k, v := range m.Counters {
			if strings.HasPrefix(k, "cluster_") {
				st.Totals[k] += v
			}
		}
		if m.Alerts != nil {
			st.Alerts.Firing += m.Alerts.Firing
			st.Alerts.Pending += m.Alerts.Pending
			for _, a := range m.Alerts.Alerts {
				if a.State == "firing" {
					firing[a.Rule] = true
				}
			}
		}
	}
	for rule := range firing {
		st.Alerts.FiringRules = append(st.Alerts.FiringRules, rule)
	}
	sort.Strings(st.Alerts.FiringRules)
	return st
}

// probeMember fetches one member's health and metrics within the
// status timeout. Failures classify, they do not propagate: a dead
// member yields Healthy: false and marks the snapshot partial.
func (n *Node) probeMember(ctx context.Context, name, base string) MemberStatus {
	ms := MemberStatus{Name: name, URL: base}
	ctx, cancel := context.WithTimeout(ctx, statusTimeout)
	defer cancel()
	if _, err := n.probeGet(ctx, base+"/v1/healthz"); err != nil {
		ms.Error = "unreachable"
		return ms
	}
	body, err := n.probeGet(ctx, base+"/metrics")
	if err != nil {
		ms.Error = "unreachable"
		return ms
	}
	counters, routes, err := parseMetricsSnapshot(body)
	if err != nil {
		ms.Error = "bad metrics"
		return ms
	}
	alerts, err := n.probeGet(ctx, base+health.AlertsPath)
	if err != nil {
		ms.Error = "unreachable"
		return ms
	}
	var doc health.AlertsDoc
	if err := json.Unmarshal(alerts, &doc); err != nil || doc.Schema != health.Schema {
		ms.Error = "bad alerts"
		return ms
	}
	ms.Healthy = true
	ms.Counters = counters
	ms.Routes = routes
	ms.Alerts = &doc
	return ms
}

// probeGet performs one bounded GET and returns the body on a 200.
func (n *Node) probeGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s answered %d", url, resp.StatusCode)
	}
	return body, nil
}

// parseMetricsSnapshot turns one member's Prometheus exposition into
// the snapshot's counters map and route summaries, dropping the
// scrape-time-dependent series: the process_ self-metrics and the
// healthz/readyz series that the status fan-out's own probes perturb.
// Everything that remains is deterministic under a quiesced workload,
// which is what makes the merged snapshot byte-identical across
// querying nodes.
func parseMetricsSnapshot(data []byte) (map[string]int64, []RouteLatency, error) {
	counters := make(map[string]int64)
	byEndpoint := make(map[string]*RouteLatency)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "process_") ||
			strings.Contains(line, `endpoint="healthz"`) ||
			strings.Contains(line, `endpoint="readyz"`) ||
			strings.Contains(line, `endpoint="health.alerts"`) {
			// health.alerts joins healthz/readyz in the excluded set: the
			// status fan-out's own alert probes perturb its request and
			// latency series, which would break cross-node byte identity.
			continue
		}
		// Cut at the last space: a sample value never contains one, but
		// a label value may (a development toolchain's go_version).
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fmt.Errorf("cluster: unparseable metrics line %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		if strings.HasPrefix(series, "capserver_latency_ms") {
			if err := mergeLatencyLine(byEndpoint, series, value); err != nil {
				return nil, nil, err
			}
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: non-integer sample %q", line)
		}
		counters[series] = v
	}
	routes := make([]RouteLatency, 0, len(byEndpoint))
	for _, r := range byEndpoint {
		routes = append(routes, *r)
	}
	sort.Slice(routes, func(a, b int) bool { return routes[a].Endpoint < routes[b].Endpoint })
	return counters, routes, nil
}

// mergeLatencyLine folds one capserver_latency_ms exposition line
// (count or quantile) into the per-endpoint summaries.
func mergeLatencyLine(byEndpoint map[string]*RouteLatency, series, value string) error {
	endpoint := labelValue(series, "endpoint")
	if endpoint == "" {
		return fmt.Errorf("cluster: latency series %q has no endpoint label", series)
	}
	r := byEndpoint[endpoint]
	if r == nil {
		r = &RouteLatency{Endpoint: endpoint}
		byEndpoint[endpoint] = r
	}
	if strings.HasPrefix(series, "capserver_latency_ms_count") {
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("cluster: latency count %q: %v", value, err)
		}
		r.Count = n
		return nil
	}
	q := labelValue(series, "quantile")
	if q != "0.5" && q != "0.99" {
		return nil // 0.9 is exposed but not federated
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return fmt.Errorf("cluster: latency quantile %q: %v", value, err)
	}
	if q == "0.5" {
		r.P50MS = v
	} else {
		r.P99MS = v
	}
	return nil
}

// labelValue extracts one label's value from a rendered series name
// ("" when absent). The exposition quotes with %q and no label value
// in this system contains a quote, so scanning to the closing quote
// is exact.
func labelValue(series, label string) string {
	marker := label + `="`
	i := strings.Index(series, marker)
	if i < 0 {
		return ""
	}
	rest := series[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
