package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedTestCluster builds the standard three-node test cluster with a
// tracer per node, returning the per-node span buffers.
func tracedTestCluster(t *testing.T, tune func(name string, cfg *Config)) (*testCluster, map[string]*bytes.Buffer) {
	t.Helper()
	bufs := map[string]*bytes.Buffer{"n1": {}, "n2": {}, "n3": {}}
	tc := newTestCluster(t, func(name string, cfg *Config) {
		cfg.Tracer = obs.NewTracer(bufs[name])
		cfg.TraceSeed = 1
		if tune != nil {
			tune(name, cfg)
		}
	})
	return tc, bufs
}

// spansOf flushes and parses one node's request spans.
func spansOf(t *testing.T, tc *testCluster, bufs map[string]*bytes.Buffer, name string) []obs.ReqSpan {
	t.Helper()
	if err := tc.nodes[name].cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadReqSpans(bytes.NewReader(bufs[name].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestRoutingHeadersAcrossPaths is the header contract table: for
// every serveHTTP path, which of the X-Capserver-* headers must appear
// on the response, which incoming ones must be stripped before the
// local handler sees the request, and which survive a hop.
func TestRoutingHeadersAcrossPaths(t *testing.T) {
	spoof := func(r *http.Request) {
		// A client trying to impersonate cluster internals: every
		// routing header pre-set on the incoming request.
		r.Header.Set(TraceHeader, "spoofed-id")
		r.Header.Set(PeerHeader, "evil")
		r.Header.Set(HedgeHeader, "1")
		r.Header.Set(DegradedHeader, "evil")
	}

	t.Run("owned untraced strips spoofed trace", func(t *testing.T) {
		tc := newTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n1")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		spoof(req)
		tc.nodes["n1"].serveHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		for _, h := range []string{TraceHeader, PeerHeader, HedgeHeader, DegradedHeader} {
			if got := rec.Header().Get(h); got != "" {
				t.Errorf("untraced owned response reflects %s=%q", h, got)
			}
		}
		if seen := tc.locals["n1"].tracedSeen(); len(seen) != 1 || seen[0] != "" {
			t.Errorf("local handler saw trace header %v, want one empty value", seen)
		}
	})

	t.Run("owned traced mints fresh id over spoof", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n1")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		spoof(req)
		tc.nodes["n1"].serveHTTP(rec, req)
		id := rec.Header().Get(TraceHeader)
		if id == "" || id == "spoofed-id" {
			t.Fatalf("traced owned response has id %q, want a fresh node-minted one", id)
		}
		if seen := tc.locals["n1"].tracedSeen(); len(seen) != 1 || seen[0] != id {
			t.Errorf("local handler saw %v, want the minted id %q", seen, id)
		}
		spans := spansOf(t, tc, bufs, "n1")
		if len(spans) != 1 || spans[0].Path != obs.PathOwned || spans[0].ID != id {
			t.Fatalf("spans %+v, want one owned span for %s", spans, id)
		}
	})

	t.Run("forward carries id to owner and back", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		id := rec.Header().Get(TraceHeader)
		if id == "" {
			t.Fatal("forwarded response lost the trace id")
		}
		if got := rec.Header().Get(PeerHeader); got != "n2" {
			t.Fatalf("peer header %q", got)
		}
		// The owner saw the hop pre-routed with the same id.
		_, fwd := tc.locals["n2"].snapshot()
		if len(fwd) != 1 || fwd[0] != "n1" {
			t.Fatalf("owner saw forwarded=%v", fwd)
		}
		if seen := tc.locals["n2"].tracedSeen(); len(seen) != 1 || seen[0] != id {
			t.Fatalf("owner saw trace %v, want %q", seen, id)
		}
		if got := tc.nodes["n2"].Metrics().count(routeRemote); got != 1 {
			t.Fatalf("owner remote counter %d", got)
		}
		origin := spansOf(t, tc, bufs, "n1")
		if len(origin) != 1 || origin[0].Path != obs.PathForward ||
			origin[0].Peer != "n2" || origin[0].Winner != "n2" {
			t.Fatalf("origin spans %+v, want one forward n2->n2", origin)
		}
		remote := spansOf(t, tc, bufs, "n2")
		if len(remote) != 1 || remote[0].Path != obs.PathRemote ||
			remote[0].ID != id || remote[0].Peer != "n1" {
			t.Fatalf("owner spans %+v, want one remote span of %s from n1", remote, id)
		}
	})

	t.Run("store-local traced mints id and records one span", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		tc.locals["n1"].store("bounds?" + q)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		spoof(req)
		tc.nodes["n1"].serveHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		id := rec.Header().Get(TraceHeader)
		if id == "" || id == "spoofed-id" {
			t.Fatalf("store-local response has id %q, want a fresh node-minted one", id)
		}
		for _, h := range []string{PeerHeader, HedgeHeader, DegradedHeader} {
			if got := rec.Header().Get(h); got != "" {
				t.Errorf("store-local response carries %s=%q", h, got)
			}
		}
		spans := spansOf(t, tc, bufs, "n1")
		if len(spans) != 1 || spans[0].Path != obs.PathStoreLocal || spans[0].ID != id ||
			spans[0].Cache != "store" || spans[0].Status != http.StatusOK {
			t.Fatalf("spans %+v, want one store-local span for %s", spans, id)
		}
		if owner := spansOf(t, tc, bufs, "n2"); len(owner) != 0 {
			t.Fatalf("owner recorded spans %+v for a request it never saw", owner)
		}
	})

	t.Run("pre-routed traced hop never re-forwards", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		req.Header.Set(ForwardedHeader, "harness")
		req.Header.Set(TraceHeader, "h-1.9-cafecafe")
		tc.nodes["n3"].serveHTTP(rec, req) // n3 owns nothing here
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		m := tc.nodes["n3"].Metrics()
		if m.Forwards() != 0 {
			t.Fatal("pre-routed request was re-forwarded")
		}
		if m.count(routeRemote) != 1 {
			t.Fatalf("remote counter %d", m.count(routeRemote))
		}
		if got := rec.Header().Get(TraceHeader); got != "h-1.9-cafecafe" {
			t.Fatalf("pre-routed hop rewrote the id: %q", got)
		}
		spans := spansOf(t, tc, bufs, "n3")
		if len(spans) != 1 || spans[0].Path != obs.PathRemote || spans[0].ID != "h-1.9-cafecafe" {
			t.Fatalf("spans %+v, want one remote span with the incoming id", spans)
		}
	})

	t.Run("pre-routed forged id keeps the trace readable", func(t *testing.T) {
		// A client posing as a forwarding peer, with an ID that is not
		// valid UTF-8: the hop is trusted, so its span must still parse.
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		req.Header.Set(ForwardedHeader, "evil")
		req.Header.Set(TraceHeader, "a\x80b")
		tc.nodes["n3"].serveHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		spans := spansOf(t, tc, bufs, "n3")
		if len(spans) != 1 || spans[0].Path != obs.PathRemote || spans[0].ID != "a\uFFFDb" || spans[0].Peer != "evil" {
			t.Fatalf("spans %+v, want one remote span from evil with the id read as %q", spans, "a\uFFFDb")
		}
	})

	t.Run("pre-routed untraced hop strips the id", func(t *testing.T) {
		tc := newTestCluster(t, nil) // tracing off
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		req.Header.Set(ForwardedHeader, "harness")
		req.Header.Set(TraceHeader, "stale-id")
		tc.nodes["n3"].serveHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := tc.nodes["n3"].Metrics().count(routeRemote); got != 0 {
			t.Fatalf("untraced hop bumped the remote counter: %d", got)
		}
		if seen := tc.locals["n3"].tracedSeen(); len(seen) != 1 || seen[0] != "" {
			t.Fatalf("stale trace id leaked through: %v", seen)
		}
		if got := rec.Header().Get(TraceHeader); got != "" {
			t.Fatalf("untraced response carries id %q", got)
		}
	})

	t.Run("degraded response keeps id and marker", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, nil)
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		tc.servers["n2"].Close()
		rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get(DegradedHeader); got != "n2" {
			t.Fatalf("degraded header %q", got)
		}
		id := rec.Header().Get(TraceHeader)
		if id == "" {
			t.Fatal("degraded response lost the trace id")
		}
		spans := spansOf(t, tc, bufs, "n1")
		// One winnerless forward, retry spans from the attempts, and the
		// terminal degraded span — all with the same id.
		var forward, degraded, retries int
		for _, sp := range spans {
			if sp.ID != id {
				t.Fatalf("span %+v has foreign id, want %s", sp, id)
			}
			switch sp.Path {
			case obs.PathForward:
				forward++
				if sp.Winner != "" {
					t.Fatalf("degraded request's forward span has winner %q", sp.Winner)
				}
			case obs.PathDegraded:
				degraded++
			case obs.PathRetry:
				retries++
			}
		}
		if forward != 1 || degraded != 1 || retries == 0 {
			t.Fatalf("spans %+v: forward=%d degraded=%d retries=%d", spans, forward, degraded, retries)
		}
	})

	t.Run("hedged win marks span and header", func(t *testing.T) {
		tc, bufs := tracedTestCluster(t, func(name string, cfg *Config) {
			cfg.HedgeDelay = 5 * time.Millisecond
		})
		q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
		tc.locals["n2"].delay = 400 * time.Millisecond
		rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get(HedgeHeader); got != "1" {
			t.Fatalf("hedge header %q", got)
		}
		// Let the canceled primary attempt settle: it may emit one last
		// retry span microseconds after the hedged response returned.
		time.Sleep(100 * time.Millisecond)
		spans := spansOf(t, tc, bufs, "n1")
		var sawHedge, sawWin bool
		for _, sp := range spans {
			if sp.Path == obs.PathHedge {
				sawHedge = true
			}
			if sp.Path == obs.PathForward && sp.Hedge == 1 && sp.Winner != "" && sp.Winner != "n2" {
				sawWin = true
			}
		}
		if !sawHedge || !sawWin {
			t.Fatalf("spans %+v: hedge span=%v hedged forward win=%v", spans, sawHedge, sawWin)
		}
	})
}
