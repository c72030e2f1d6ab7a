package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/capserver"
	"repro/internal/obs"
)

// statusTestCluster boots three real members (registry, mux,
// /metrics, /v1/healthz) behind cluster routers on real listeners —
// the federation endpoint probes members over HTTP, so fakes without
// a /metrics page cannot exercise it.
func statusTestCluster(t *testing.T) *Testbed {
	t.Helper()
	tb, err := StartTestbed([]string{"n1", "n2", "n3"}, func(string, int) ProcConfig {
		return ProcConfig{
			Server: capserver.Config{Workers: 2, QueueDepth: 16},
			// No hedging keeps post-request counter state deterministic.
			Cluster: Config{HedgeDelay: -1},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tb.Close() })
	return tb
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestClusterStatusByteIdentical: after a quiesced workload, the
// federation snapshot must be byte-identical no matter which member
// assembled it, modulo the self marker — the probes' own side effects
// (healthz counters, runtime gauges) are excluded by construction.
func TestClusterStatusByteIdentical(t *testing.T) {
	tb := statusTestCluster(t)

	// A small deterministic workload through one door: forwards and
	// owned serves land wherever the ring says, identically for every
	// later snapshot.
	for i := 0; i < 8; i++ {
		code, _ := getBody(t, tb.URL("n1")+fmt.Sprintf("/v1/bounds?n=%d&pd=0.2", 4+i))
		if code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, code)
		}
	}

	normalized := make(map[string]string, len(tb.Names))
	for _, name := range tb.Names {
		code, body := getBody(t, tb.URL(name)+StatusPath)
		if code != http.StatusOK {
			t.Fatalf("status via %s: %d", name, code)
		}
		var st ClusterStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status via %s: %v", name, err)
		}
		if st.Self != name || st.Partial {
			t.Fatalf("status via %s: self=%q partial=%v", name, st.Self, st.Partial)
		}
		normalized[name] = strings.Replace(string(body),
			fmt.Sprintf("%q: %q", "self", name), `"self": "SELF"`, 1)
	}
	if normalized["n1"] != normalized["n2"] || normalized["n1"] != normalized["n3"] {
		t.Fatalf("snapshots differ across queried nodes:\n--- n1 ---\n%s\n--- n2 ---\n%s\n--- n3 ---\n%s",
			normalized["n1"], normalized["n2"], normalized["n3"])
	}

	// Spot-check the merged content: ring arcs for every member, the
	// forward totals from the warm workload, and per-route latency.
	var st ClusterStatus
	if err := json.Unmarshal([]byte(strings.Replace(normalized["n1"], `"self": "SELF"`, `"self": "n1"`, 1)), &st); err != nil {
		t.Fatal(err)
	}
	var arcs int64
	for _, name := range []string{"n1", "n2", "n3"} {
		arcs += st.RingPermille[name]
	}
	if arcs < 990 || arcs > 1000 {
		t.Fatalf("ring arcs sum to %d permille", arcs)
	}
	owned := st.Totals["cluster_owned_local_total"]
	forwards := st.Totals["cluster_forward_total"]
	if owned+forwards != 8 {
		t.Fatalf("owned %d + forwards %d != 8 warm requests", owned, forwards)
	}
	for _, m := range st.Members {
		if !m.Healthy {
			t.Fatalf("member %s unhealthy in a live cluster", m.Name)
		}
		for _, r := range m.Routes {
			if r.Endpoint == "healthz" || r.Endpoint == "readyz" {
				t.Fatalf("probe-perturbed route %q leaked into the snapshot", r.Endpoint)
			}
		}
		for k := range m.Counters {
			if strings.HasPrefix(k, "process_") || strings.Contains(k, `endpoint="healthz"`) ||
				strings.Contains(k, `endpoint="health.alerts"`) {
				t.Fatalf("excluded series %q leaked into the snapshot", k)
			}
		}
		// Every member federates its alert verdict: the full default rule
		// set, sorted, all inactive on an unticked healthy cluster.
		if m.Alerts == nil {
			t.Fatalf("member %s carries no alert verdict", m.Name)
		}
		if m.Alerts.Schema != "capest/health-alerts/v1" || len(m.Alerts.Alerts) == 0 {
			t.Fatalf("member %s alert doc: %+v", m.Name, m.Alerts)
		}
		for _, a := range m.Alerts.Alerts {
			if a.State != "inactive" {
				t.Fatalf("member %s rule %s state %q on a healthy cluster", m.Name, a.Rule, a.State)
			}
		}
	}
	if st.Alerts.Firing != 0 || st.Alerts.Pending != 0 || len(st.Alerts.FiringRules) != 0 {
		t.Fatalf("healthy cluster rolls up alerts %+v", st.Alerts)
	}
}

// TestClusterStatusPartialOnDeadMember: a dead member makes the
// snapshot partial, never an error.
func TestClusterStatusPartialOnDeadMember(t *testing.T) {
	tb := statusTestCluster(t)
	tb.Kill("n2")

	code, body := getBody(t, tb.URL("n1")+StatusPath)
	if code != http.StatusOK {
		t.Fatalf("status with a dead member answered %d, want 200", code)
	}
	var st ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Partial {
		t.Fatal("snapshot with a dead member is not marked partial")
	}
	for _, m := range st.Members {
		switch m.Name {
		case "n2":
			if m.Healthy || m.Error != "unreachable" {
				t.Fatalf("dead member reported %+v", m)
			}
			if len(m.Counters) != 0 {
				t.Fatalf("dead member carries counters: %v", m.Counters)
			}
		default:
			if !m.Healthy {
				t.Fatalf("live member %s reported unhealthy", m.Name)
			}
		}
	}
}

// FuzzParseMetricsSnapshot feeds the federation's parser a member's
// exposition whose build-info label holds any string, as a development
// toolchain's runtime.Version() ("devel go1.25-abc Tue Jan 1") does:
// parsing must succeed and recover the counter and the bounds route.
func FuzzParseMetricsSnapshot(f *testing.F) {
	f.Add("devel go1.25-abc Tue Jan 1", int64(7))
	f.Add("go1.22.0", int64(0))
	f.Add("a \"q\" \\ b\nc} 2", int64(-3))
	f.Fuzz(func(t *testing.T, version string, n int64) {
		reg := obs.NewRegistry()
		reg.Counter("fuzz_total").Add(n)
		reg.GaugeVec("capserver_build_info", "go_version").With(version).Set(1)
		reg.LatencyVec("capserver_latency_ms", "endpoint").Observe("bounds", time.Millisecond)
		var buf bytes.Buffer
		reg.WriteProm(&buf)
		counters, routes, err := parseMetricsSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("version %q: %v", version, err)
		}
		if got := counters["fuzz_total"]; got != n {
			t.Fatalf("version %q: counter %d, want %d", version, got, n)
		}
		if len(routes) != 1 || routes[0].Endpoint != "bounds" || routes[0].Count != 1 {
			t.Fatalf("version %q: routes %+v, want bounds with count 1", version, routes)
		}
	})
}
