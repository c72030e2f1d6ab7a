package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLocal stands in for capserver.Server: /v1/bounds is shardable
// with key "bounds?<query>", the body is a pure function of the key,
// and the test can inject latency or a fixed status per node, or
// place keys in the node's view of the shared store.
type fakeLocal struct {
	name  string
	delay time.Duration
	fail  atomic.Int32 // nonzero: respond with this status

	mu        sync.Mutex
	computes  int
	forwarded []string // ForwardedHeader values seen
	traced    []string // TraceHeader values seen (including "")
	stored    map[string][]byte
	peeks     int // Stored calls
}

func (f *fakeLocal) Canonicalize(r *http.Request) (string, bool) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/bounds" {
		return "bounds?" + r.URL.RawQuery, true
	}
	return "", false
}

// fakeBody is the body every fakeLocal serves for a canonical key.
func fakeBody(key string) string { return fmt.Sprintf(`{"body":%q}`, key) }

func (f *fakeLocal) Stored(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peeks++
	b, ok := f.stored[key]
	return b, ok
}

// store places a key's body in the node's store, as a compute anywhere
// in the cluster would.
func (f *fakeLocal) store(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stored == nil {
		f.stored = make(map[string][]byte)
	}
	f.stored[key] = []byte(fakeBody(key))
}

func (f *fakeLocal) peekCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peeks
}

func (f *fakeLocal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.computes++
		f.forwarded = append(f.forwarded, r.Header.Get(ForwardedHeader))
		f.traced = append(f.traced, r.Header.Get(TraceHeader))
		f.mu.Unlock()
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		if code := f.fail.Load(); code != 0 {
			w.WriteHeader(int(code))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Capserver-Cache", "miss")
		fmt.Fprint(w, fakeBody("bounds?"+r.URL.RawQuery))
	})
}

func (f *fakeLocal) snapshot() (int, []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.computes, append([]string(nil), f.forwarded...)
}

// tracedSeen returns the TraceHeader value of every request the local
// handler served, in order.
func (f *fakeLocal) tracedSeen() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.traced...)
}

// testCluster is three nodes over httptest servers sharing one
// membership.
type testCluster struct {
	locals  map[string]*fakeLocal
	nodes   map[string]*Node
	servers map[string]*httptest.Server
}

// hswitch lets the httptest servers start before the nodes exist (the
// membership needs the listener URLs, the nodes need the membership).
type hswitch struct{ h atomic.Value }

func (s *hswitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func newTestCluster(t *testing.T, tune func(name string, cfg *Config)) *testCluster {
	t.Helper()
	names := []string{"n1", "n2", "n3"}
	tc := &testCluster{
		locals:  make(map[string]*fakeLocal),
		nodes:   make(map[string]*Node),
		servers: make(map[string]*httptest.Server),
	}
	switches := make(map[string]*hswitch)
	var mem Membership
	for _, name := range names {
		sw := &hswitch{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		switches[name] = sw
		tc.servers[name] = srv
		mem.Members = append(mem.Members, Member{Name: name, URL: srv.URL})
	}
	for _, name := range names {
		cfg := Config{
			Self:        name,
			Membership:  mem,
			HedgeDelay:  -1, // most tests exercise the primary path only
			PeerBackoff: time.Millisecond,
			Client:      &http.Client{Timeout: 5 * time.Second},
		}
		if tune != nil {
			tune(name, &cfg)
		}
		local := &fakeLocal{name: name}
		node, err := NewNode(local, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.locals[name] = local
		tc.nodes[name] = node
		switches[name].h.Store(node.Handler())
	}
	return tc
}

// keyOwnedBy finds a /v1/bounds query whose canonical key the target
// owns.
func keyOwnedBy(t *testing.T, r *Ring, target string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		q := fmt.Sprintf("n=%d&pd=0.2", i)
		if r.Owner("bounds?"+q) == target {
			return q
		}
	}
	t.Fatalf("no key owned by %s in 10000 probes", target)
	return ""
}

func get(t *testing.T, n *Node, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	n.serveHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestOwnedKeyServesLocally(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n1")
	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get(PeerHeader) != "" || rec.Header().Get(DegradedHeader) != "" {
		t.Fatalf("owned key grew routing headers: %v", rec.Header())
	}
	m := tc.nodes["n1"].Metrics()
	if m.OwnedLocal() != 1 || m.Forwards() != 0 {
		t.Fatalf("owned=%d forwards=%d", m.OwnedLocal(), m.Forwards())
	}
	if c, _ := tc.locals["n1"].snapshot(); c != 1 {
		t.Fatalf("local computes: %d", c)
	}
}

func TestForwardToOwnerIsByteIdentical(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	want := fmt.Sprintf(`{"body":%q}`, "bounds?"+q)
	if rec.Body.String() != want {
		t.Fatalf("body %q want %q", rec.Body.String(), want)
	}
	if got := rec.Header().Get(PeerHeader); got != "n2" {
		t.Fatalf("peer header %q", got)
	}
	if got := rec.Header().Get("X-Capserver-Cache"); got != "miss" {
		t.Fatalf("cache class not relayed: %q", got)
	}
	if m := tc.nodes["n1"].Metrics(); m.Forwards() != 1 || m.Degraded() != 0 {
		t.Fatalf("forwards=%d degraded=%d", m.Forwards(), m.Degraded())
	}
	// The owner saw exactly one pre-routed request naming the sender.
	c, fwd := tc.locals["n2"].snapshot()
	if c != 1 || len(fwd) != 1 || fwd[0] != "n1" {
		t.Fatalf("owner computes=%d forwarded=%v", c, fwd)
	}
}

func TestForwardedRequestNeverReforwards(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
	req.Header.Set(ForwardedHeader, "harness")
	tc.nodes["n3"].serveHTTP(rec, req) // n3 is not the owner
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if m := tc.nodes["n3"].Metrics(); m.Forwards() != 0 {
		t.Fatalf("pre-routed request was re-forwarded")
	}
	if c, _ := tc.locals["n3"].snapshot(); c != 1 {
		t.Fatalf("n3 computes: %d", c)
	}
}

func TestStoredKeyServesAtOrigin(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	key := "bounds?" + q
	// What the owner answers over a hop, seen from n3, whose store is
	// empty.
	hop := get(t, tc.nodes["n3"], "/v1/bounds?"+q)
	if hop.Code != http.StatusOK || hop.Header().Get(PeerHeader) != "n2" {
		t.Fatalf("reference forward: status %d, peer %q", hop.Code, hop.Header().Get(PeerHeader))
	}

	tc.locals["n1"].store(key)
	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Body.String() != hop.Body.String() {
		t.Fatalf("store-local body %q, forwarded body %q", rec.Body.String(), hop.Body.String())
	}
	if got := rec.Header().Get("X-Capserver-Cache"); got != "store" {
		t.Fatalf("cache class %q, want store", got)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type %q", got)
	}
	if rec.Header().Get(PeerHeader) != "" || rec.Header().Get(DegradedHeader) != "" {
		t.Fatalf("store-local response grew routing headers: %v", rec.Header())
	}
	m := tc.nodes["n1"].Metrics()
	if m.Forwards() != 0 || m.StoreLocal() != 1 || m.OwnedLocal() != 0 {
		t.Fatalf("forwards=%d store_local=%d owned=%d, want 0 1 0", m.Forwards(), m.StoreLocal(), m.OwnedLocal())
	}
	if c, _ := tc.locals["n2"].snapshot(); c != 1 {
		t.Fatalf("owner handler ran %d times, want only the reference forward", c)
	}
	if c, _ := tc.locals["n1"].snapshot(); c != 0 {
		t.Fatalf("origin handler ran %d times for a stored key", c)
	}

	// A key the store does not hold still forwards to its owner.
	miss := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n3")
	rec = get(t, tc.nodes["n1"], "/v1/bounds?"+miss)
	if rec.Code != http.StatusOK || rec.Header().Get(PeerHeader) != "n3" {
		t.Fatalf("store miss: status %d, peer %q", rec.Code, rec.Header().Get(PeerHeader))
	}
	if m.Forwards() != 1 || m.StoreLocal() != 1 {
		t.Fatalf("after a miss: forwards=%d store_local=%d, want 1 1", m.Forwards(), m.StoreLocal())
	}
	if p := tc.locals["n1"].peekCount(); p != 2 {
		t.Fatalf("origin peeked %d times, want once per non-owned request", p)
	}
}

// TestStorePeekOnlyAtOrigin: owned, pre-routed and non-shardable
// requests serve through the local handler without peeking, even when
// the store holds their key.
func TestStorePeekOnlyAtOrigin(t *testing.T) {
	tc := newTestCluster(t, nil)
	n1 := tc.locals["n1"]
	owned := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n1")
	other := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	n1.store("bounds?" + owned)
	n1.store("bounds?" + other)

	get(t, tc.nodes["n1"], "/v1/bounds?"+owned)
	pre := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+other, nil)
	pre.Header.Set(ForwardedHeader, "harness")
	tc.nodes["n1"].serveHTTP(httptest.NewRecorder(), pre)
	get(t, tc.nodes["n1"], "/v1/catalog")

	if p := n1.peekCount(); p != 0 {
		t.Fatalf("store peeked %d times on owned, pre-routed and non-shardable requests", p)
	}
	if c, _ := n1.snapshot(); c != 3 {
		t.Fatalf("local handler served %d of 3 requests", c)
	}
	if got := tc.nodes["n1"].Metrics().StoreLocal(); got != 0 {
		t.Fatalf("store_local %d, want 0", got)
	}
}

func TestNonShardableServesLocally(t *testing.T) {
	tc := newTestCluster(t, nil)
	rec := get(t, tc.nodes["n1"], "/v1/catalog")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	m := tc.nodes["n1"].Metrics()
	if m.Forwards() != 0 || m.OwnedLocal() != 0 {
		t.Fatalf("non-shardable request touched the ring: forwards=%d owned=%d", m.Forwards(), m.OwnedLocal())
	}
}

func TestOwnerDownDegradesToLocalCompute(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	tc.servers["n2"].Close()

	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	want := fmt.Sprintf(`{"body":%q}`, "bounds?"+q)
	if rec.Body.String() != want {
		t.Fatalf("degraded body %q want %q", rec.Body.String(), want)
	}
	if got := rec.Header().Get(DegradedHeader); got != "n2" {
		t.Fatalf("degraded header %q", got)
	}
	m := tc.nodes["n1"].Metrics()
	if m.Degraded() != 1 || m.Retries() != 1 || m.PeerErrors() != 1 {
		t.Fatalf("degraded=%d retries=%d peerErrors=%d", m.Degraded(), m.Retries(), m.PeerErrors())
	}
	if c, _ := tc.locals["n1"].snapshot(); c != 1 {
		t.Fatalf("local fallback computes: %d", c)
	}
}

func TestRetryableStatusExhaustsThenDegrades(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	tc.locals["n2"].fail.Store(http.StatusServiceUnavailable)

	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(DegradedHeader); got != "n2" {
		t.Fatalf("degraded header %q", got)
	}
	m := tc.nodes["n1"].Metrics()
	if m.Retries() != 1 || m.PeerErrors() != 1 || m.Degraded() != 1 {
		t.Fatalf("retries=%d peerErrors=%d degraded=%d", m.Retries(), m.PeerErrors(), m.Degraded())
	}
	// Both attempts landed on the owner before the fallback.
	if c, _ := tc.locals["n2"].snapshot(); c != 2 {
		t.Fatalf("owner attempts: %d", c)
	}
}

func TestAuthoritativeErrorStatusIsRelayedNotRetried(t *testing.T) {
	tc := newTestCluster(t, nil)
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	tc.locals["n2"].fail.Store(http.StatusBadRequest)

	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d want 400 relayed from owner", rec.Code)
	}
	m := tc.nodes["n1"].Metrics()
	if m.Retries() != 0 || m.Degraded() != 0 {
		t.Fatalf("authoritative status retried or degraded: retries=%d degraded=%d", m.Retries(), m.Degraded())
	}
}

func TestHedgeFiresAndWinsAgainstSlowOwner(t *testing.T) {
	tc := newTestCluster(t, func(name string, cfg *Config) {
		cfg.HedgeDelay = 5 * time.Millisecond
	})
	q := keyOwnedBy(t, tc.nodes["n1"].Ring(), "n2")
	tc.locals["n2"].delay = 400 * time.Millisecond

	start := time.Now()
	rec := get(t, tc.nodes["n1"], "/v1/bounds?"+q)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	want := fmt.Sprintf(`{"body":%q}`, "bounds?"+q)
	if rec.Body.String() != want {
		t.Fatalf("hedged body %q want %q", rec.Body.String(), want)
	}
	if got := rec.Header().Get(HedgeHeader); got != "1" {
		t.Fatalf("hedge header %q", got)
	}
	if got := rec.Header().Get(PeerHeader); got == "n2" || got == "" {
		t.Fatalf("hedge win attributed to %q", got)
	}
	m := tc.nodes["n1"].Metrics()
	if m.Hedges() != 1 || m.HedgeWins() != 1 {
		t.Fatalf("hedges=%d wins=%d", m.Hedges(), m.HedgeWins())
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("hedge did not cut latency: %v", elapsed)
	}
}

func TestNewNodeValidation(t *testing.T) {
	mem := Membership{Members: []Member{{Name: "n1", URL: "http://h1"}}}
	if _, err := NewNode(nil, Config{Self: "n1", Membership: mem}); err == nil {
		t.Fatal("nil local accepted")
	}
	if _, err := NewNode(&fakeLocal{}, Config{Membership: mem}); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewNode(&fakeLocal{}, Config{Self: "nx", Membership: mem}); err == nil {
		t.Fatal("self outside membership accepted")
	}
}
