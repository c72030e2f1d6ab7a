package capserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// TestTraceEndpoint checks the /v1/trace summary: the observed-use
// tallies must account for every delivered symbol, the trace-driven
// estimate must agree with the assumed parameters on an uninjected
// run, and the observed bounds must be present and close to the
// assumed ones.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	path := "/v1/trace?proto=counter&n=4&pd=0.1&pi=0.05&ps=0.02&symbols=20000&seed=7"
	status, _, body := get(t, ts.URL, path)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp TraceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Estimate.Uses == 0 {
		t.Fatalf("trace recorded nothing: %+v", resp)
	}
	if !resp.AssumedAgrees {
		t.Errorf("assumed (0.1, 0.05, 0.02) outside observed CIs: pd [%v,%v] pi [%v,%v] ps [%v,%v]",
			resp.Estimate.PdLo, resp.Estimate.PdHi,
			resp.Estimate.PiLo, resp.Estimate.PiHi,
			resp.Estimate.PsLo, resp.Estimate.PsHi)
	}
	if resp.Observed == nil {
		t.Fatal("observed bounds missing on a clean run")
	}
	diff := resp.Observed.Upper - resp.Assumed.Upper
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.1*resp.Assumed.Upper {
		t.Errorf("observed upper bound %v far from assumed %v", resp.Observed.Upper, resp.Assumed.Upper)
	}
	if resp.Chunks == 0 || resp.Attempts == 0 {
		t.Errorf("supervision events missing: %+v", resp)
	}
}

// TestTraceEndpointInjected checks the injected-fault accounting: an
// outage regime must attribute overridden uses and may push the
// observed parameters away from the assumed point.
func TestTraceEndpointInjected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	path := "/v1/trace?proto=counter&n=4&pd=0.05&symbols=5000&seed=3&inject=outage%3D0.3"
	status, _, body := get(t, ts.URL, path)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var resp TraceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Estimate.Injected == 0 {
		t.Error("outage regime attributed no injected uses")
	}
	// The observed deletion fraction must sit well above the assumed
	// 0.05: the outage layer forces Pd -> 1 inside its windows.
	if resp.Estimate.Pd < 0.15 {
		t.Errorf("observed Pd %v does not reflect the outage regime", resp.Estimate.Pd)
	}
	if resp.AssumedAgrees {
		t.Error("assumed parameters should not agree with an outage-injected trace")
	}
}

// TestTraceEndpointCaches checks that /v1/trace rides the serving
// core: a repeated identical request is a cache hit with an identical
// body.
func TestTraceEndpointCaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	path := "/v1/trace?proto=naive&n=4&pd=0.1&symbols=1000&seed=5"
	_, hdr1, body1 := get(t, ts.URL, path)
	_, hdr2, body2 := get(t, ts.URL, path)
	if hdr1.Get("X-Capserver-Cache") != "miss" || hdr2.Get("X-Capserver-Cache") != "hit" {
		t.Errorf("cache sources = %q then %q, want miss then hit",
			hdr1.Get("X-Capserver-Cache"), hdr2.Get("X-Capserver-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from computed body")
	}
	if got := srv.Metrics().ComputeCalls("trace"); got != 1 {
		t.Errorf("compute calls = %d, want 1 (second request served from cache)", got)
	}
}

// TestSharedRegistry checks the registry swap: a server built over a
// caller-supplied registry exposes its families there.
func TestSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Metrics: reg})
	get(t, ts.URL, "/healthz")
	if srv.Metrics().Registry() != reg {
		t.Fatal("server did not adopt the supplied registry")
	}
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	if !bytes.Contains(buf.Bytes(), []byte(`capserver_requests_total{endpoint="healthz",code="200"} 1`)) {
		t.Errorf("shared registry missing the served request:\n%s", buf.String())
	}
}
