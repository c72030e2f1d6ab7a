package cluster

import (
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capserver"
)

// Exposition lint: one full node's /metrics page — serving core,
// session subsystem, alert state, and cluster routing families on one
// registry — must be well-formed Prometheus text format v0.0.4 down to
// every name, label, escape and value, including a family carrying
// deliberately hostile label values. This lives in the cluster package
// because only here do all three family sets coexist on one page.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintExposition parses one exposition page strictly, returning the
// set of sample family names (label-stripped) and the first error.
func lintExposition(text string) (map[string]bool, error) {
	families := make(map[string]bool)
	typed := make(map[string]string)
	helped := make(map[string]bool)
	seenSeries := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, rest, ok := strings.Cut(strings.TrimPrefix(line, "# "), " ")
			if !ok {
				return nil, fmt.Errorf("line %d: bare comment %q", ln+1, line)
			}
			name, payload, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed %s line %q", ln+1, kind, line)
			}
			switch kind {
			case "HELP":
				if helped[name] {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", ln+1, name)
				}
				helped[name] = true
				// Raw newlines cannot survive the line split; a trailing
				// lone backslash or a bad escape can.
				if err := checkEscapes(payload, false); err != nil {
					return nil, fmt.Errorf("line %d: HELP %s: %v", ln+1, name, err)
				}
			case "TYPE":
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
				}
				switch payload {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return nil, fmt.Errorf("line %d: TYPE %s %q invalid", ln+1, name, payload)
				}
				typed[name] = payload
			default:
				return nil, fmt.Errorf("line %d: unknown comment kind %q", ln+1, kind)
			}
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: no value separator in %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("line %d: unparseable value %q", ln+1, value)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("line %d: unterminated label set %q", ln+1, series)
			}
			if err := lintLabels(series[i+1 : len(series)-1]); err != nil {
				return nil, fmt.Errorf("line %d: %v", ln+1, err)
			}
		}
		if !metricNameRe.MatchString(name) {
			return nil, fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		if seenSeries[series] {
			return nil, fmt.Errorf("line %d: duplicate series %q", ln+1, series)
		}
		seenSeries[series] = true
		families[strings.TrimSuffix(name, "_count")] = true
	}
	return families, nil
}

// lintLabels validates one rendered label set body (between braces).
func lintLabels(body string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return fmt.Errorf("malformed label pair in %q", body)
		}
		name := body[:eq]
		if !labelNameRe.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		rest := body[eq+2:]
		// Scan to the closing unescaped quote.
		end := -1
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				i++
			case '"':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		if err := checkEscapes(rest[:end], true); err != nil {
			return fmt.Errorf("label %s: %v", name, err)
		}
		body = rest[end+1:]
		if body != "" {
			if body[0] != ',' {
				return fmt.Errorf("missing comma after label %s", name)
			}
			body = body[1:]
		}
	}
	return nil
}

// checkEscapes verifies a rendered HELP text or label value uses only
// the escapes the format defines (label values additionally escape the
// quote) and contains no raw quote that should have been escaped.
func checkEscapes(s string, labelValue bool) error {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return fmt.Errorf("trailing backslash in %q", s)
			}
			next := s[i+1]
			if next != '\\' && next != 'n' && !(labelValue && next == '"') {
				return fmt.Errorf("invalid escape \\%c in %q", next, s)
			}
			i++
		case '"':
			if labelValue {
				return fmt.Errorf("unescaped quote in %q", s)
			}
		}
	}
	return nil
}

func TestExpositionLintFullNode(t *testing.T) {
	tb, err := StartTestbed([]string{"n1"}, func(string, int) ProcConfig {
		return ProcConfig{Server: capserver.Config{SessionSweep: -1}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	p := tb.Proc("n1")

	// Materialize labeled families across all three subsystems: serving
	// counters and latency, session stream stats, alert state.
	for _, path := range []string{
		"/v1/bounds?n=4&pd=0.2&pi=0.1",
		"/v1/exact?n=4&pd=0.2&pi=0.1",
		"/v1/nosuch",
	} {
		resp, err := http.Get(p.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(p.URL()+"/v1/sessions/lint-a/events", "application/x-ndjson",
		strings.NewReader(`{"u":1,"k":"T","s":1,"r":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.Server.TickHealth()
	// A family with hostile label values must still render lintably.
	p.Node.Metrics().Registry().CounterVec("lint_hostile_total", "path").With("C:\\tmp\n\"q\",x=").Inc()

	resp, err = http.Get(p.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}

	families, err := lintExposition(string(body))
	if err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		// serving core
		"capserver_requests_total",
		"capserver_compute_total",
		"capserver_queue_rejected_total",
		"capserver_latency_ms",
		"capserver_build_info",
		// session subsystem
		"capserver_sessions_active",
		"capserver_sessions_limit",
		"capserver_session_stream_fires_total",
		"capserver_session_stream_uses_total",
		"capserver_session_false_alarm_ppm",
		"capserver_session_stream_false_alarm_ppm",
		// health verdicts
		"capserver_alert_state",
		// cluster routing
		"cluster_owned_local_total",
		"cluster_store_local_total",
		"cluster_degraded_total",
		"cluster_session_owned_total",
		// hostile family survived escaping
		"lint_hostile_total",
	} {
		if !families[want] {
			t.Errorf("family %s missing from exposition", want)
		}
	}
}

// TestRouteFamiliesExposition pins the routing families a fresh node
// exposes, by name and in order: the alert rules, capwatch and
// /v1/cluster/status read these names.
func TestRouteFamiliesExposition(t *testing.T) {
	var b strings.Builder
	NewMetrics(nil).Registry().WriteProm(&b)
	want := `cluster_owned_local_total 0
cluster_store_local_total 0
cluster_forward_total 0
cluster_hedge_total 0
cluster_hedge_wins_total 0
cluster_retry_total 0
cluster_peer_errors_total 0
cluster_degraded_total 0
cluster_remote_serve_total 0
cluster_session_owned_total 0
cluster_session_forward_total 0
cluster_session_retry_total 0
cluster_session_peer_errors_total 0
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}
