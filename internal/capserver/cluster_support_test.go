package capserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file tests the cluster-support surface added with the sharded
// capserver work: durable-store read-through, request abandonment,
// readiness draining and canonical-key export. The HTTP-level drain of
// in-flight requests is tested through cluster.Proc, which owns the
// listener.

// mapStore is an in-memory ResultStore for tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	b, ok := s.m[key]
	return b, ok
}

func (s *mapStore) Put(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), body...)
}

// TestStoreReadThrough exercises the durable-store integration: a
// compute populates the store, a fresh server (cold LRU) sharing the
// store serves the identical bytes without recomputing, and the
// response is labeled with the "store" cache class.
func TestStoreReadThrough(t *testing.T) {
	store := newMapStore()
	warm := New(Config{Workers: 2, Store: store})
	ts := httptest.NewServer(warm.Handler())
	defer ts.Close()

	const path = "/v1/bounds?n=4&pd=0.2&pi=0.1"
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Capserver-Cache") != "miss" {
		t.Fatalf("warm compute: status %d, class %q", resp.StatusCode, resp.Header.Get("X-Capserver-Cache"))
	}
	if store.puts != 1 {
		t.Fatalf("store.puts = %d, want 1", store.puts)
	}

	// A restarted node: new server, empty LRU, same store.
	cold := New(Config{Workers: 2, Store: store})
	ts2 := httptest.NewServer(cold.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if class := resp2.Header.Get("X-Capserver-Cache"); class != "store" {
		t.Fatalf("cold restart: cache class %q, want \"store\"", class)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("store round-trip changed bytes:\n%s\nvs\n%s", body, body2)
	}
	if got := cold.Metrics().ComputeCalls("bounds"); got != 0 {
		t.Fatalf("cold server computed %d times, want 0 (store hit)", got)
	}
	if got := cold.Metrics().StoreHits(); got != 1 {
		t.Fatalf("store hits = %d, want 1", got)
	}

	// Third request on the cold server: the store hit populated the LRU.
	resp3, err := http.Get(ts2.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if class := resp3.Header.Get("X-Capserver-Cache"); class != "hit" {
		t.Fatalf("post-store request: cache class %q, want \"hit\"", class)
	}
}

// TestStoreSkipsUnversionedEntry: a body stored under the bare
// canonical key, as code without a results version wrote it, is never
// served. The request recomputes (cache class "miss") and writes its
// body beside the stale entry, and Stored does not return the stale
// bytes either.
func TestStoreSkipsUnversionedEntry(t *testing.T) {
	const path = "/v1/bounds?n=4&pd=0.2&pi=0.1"
	store := newMapStore()
	srv := New(Config{Workers: 2, Store: store})
	key, ok := srv.Canonicalize(httptest.NewRequest(http.MethodGet, path, nil))
	if !ok {
		t.Fatal("bounds request not shardable")
	}
	stale := []byte(`{"stale":true}` + "\n")
	store.Put(key, stale)
	if body, ok := srv.Stored(key); ok {
		t.Fatalf("Stored served the unversioned entry %q", body)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if class := rec.Header().Get(CacheHeader); class != "miss" {
		t.Fatalf("cache class %q, want \"miss\"", class)
	}
	if bytes.Equal(rec.Body.Bytes(), stale) {
		t.Fatal("served the stale body")
	}
	if m := srv.Metrics(); m.StoreHits() != 0 || m.ComputeCalls("bounds") != 1 {
		t.Fatalf("store hits %d, computes %d; want 0, 1", m.StoreHits(), m.ComputeCalls("bounds"))
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.m) != 2 || !bytes.Equal(store.m[key], stale) {
		t.Fatalf("store holds %d entries; want the stale one untouched and the recomputed one", len(store.m))
	}
}

// TestStoredPeeksOnlyTheStore pins the cluster router's store peek: a
// server sharing the store returns the bytes the computing server
// served and counts a store hit, without computing and without
// touching its LRU; a server without a store always misses.
func TestStoredPeeksOnlyTheStore(t *testing.T) {
	const path = "/v1/bounds?n=4&pd=0.2&pi=0.1"
	store := newMapStore()
	warm := New(Config{Workers: 2, Store: store})
	key, ok := warm.Canonicalize(httptest.NewRequest(http.MethodGet, path, nil))
	if !ok {
		t.Fatal("bounds request not shardable")
	}
	if _, ok := warm.Stored(key); ok {
		t.Fatal("hit on an empty store")
	}
	rec := httptest.NewRecorder()
	warm.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm compute: status %d", rec.Code)
	}

	peer := New(Config{Workers: 2, Store: store})
	body, ok := peer.Stored(key)
	if !ok || !bytes.Equal(body, rec.Body.Bytes()) {
		t.Fatalf("Stored = %q, %v; want the served body %q", body, ok, rec.Body.Bytes())
	}
	m := peer.Metrics()
	if m.StoreHits() != 1 || m.ComputeCalls("bounds") != 0 || m.CacheHits() != 0 {
		t.Fatalf("store hits %d, computes %d, LRU hits %d; want 1, 0, 0",
			m.StoreHits(), m.ComputeCalls("bounds"), m.CacheHits())
	}
	if cs := peer.cache.stats(); cs.Entries != 0 || cs.Inflight != 0 {
		t.Fatalf("Stored touched the LRU or the flight table: %+v", cs)
	}

	if _, ok := New(Config{}).Stored(key); ok {
		t.Fatal("a server without a store reported a hit")
	}
}

// TestAbandonedRequestSkipsCompute is the client-disconnect regression
// test: a request whose context is canceled while its computation is
// still queued must not invoke the compute function at all once a
// worker frees up.
func TestAbandonedRequestSkipsCompute(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.pool.close()

	// Occupy the single worker so the request's job stays queued.
	block := make(chan struct{})
	if !s.pool.trySubmit(func() { <-block }) {
		t.Fatal("could not occupy the worker")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	invoked := false
	_, _, _, err := s.do(ctx, "bounds", "bounds?abandon-test", func() ([]byte, error) {
		invoked = true
		return []byte("never"), nil
	})
	if err != context.Canceled {
		t.Fatalf("do returned %v, want context.Canceled", err)
	}

	close(block) // worker picks up the queued job, which must skip
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Abandoned() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	if invoked {
		t.Fatal("compute ran for a request every waiter had abandoned")
	}

	// The abandoned flight must not wedge the key: a fresh request
	// leads a new computation and succeeds.
	body, source, _, err := s.do(context.Background(), "bounds", "bounds?abandon-test", func() ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || string(body) != "fresh" || source != "miss" {
		t.Fatalf("retry after abandonment: body %q, source %q, err %v", body, source, err)
	}
}

// TestAbandonedSharedWaiterKeepsCompute: one of two waiters leaving
// must not abandon the flight — the computation still has an audience.
func TestAbandonedSharedWaiterKeepsCompute(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.pool.close()

	block := make(chan struct{})
	if !s.pool.trySubmit(func() { <-block }) {
		t.Fatal("could not occupy the worker")
	}

	gone, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.do(gone, "bounds", "bounds?shared-test", func() ([]byte, error) {
			return []byte("kept"), nil
		})
		done <- err
	}()
	// Wait for the leader to register its flight, then join and leave.
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader flight never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // the leader's client disconnects
	if err := <-done; err != context.Canceled {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	// A second request joins the still-queued flight before the worker
	// frees: its interest keeps the computation alive.
	joined := make(chan error, 1)
	go func() {
		body, _, _, err := s.do(context.Background(), "bounds", "bounds?shared-test", func() ([]byte, error) {
			return []byte("unused"), nil
		})
		if err == nil && string(body) != "kept" {
			err = fmt.Errorf("joiner got body %q", body)
		}
		joined <- err
	}()
	for s.metrics.CacheShared() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	if err := <-joined; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if got := s.metrics.Abandoned(); got != 0 {
		t.Fatalf("abandoned = %d, want 0 (a waiter remained)", got)
	}
}

// TestReadyzDrainFlip asserts the readiness contract: /v1/readyz is
// 200 while serving and flips to 503 the moment drain begins, while
// /v1/healthz (liveness) stays 200 throughout.
func TestReadyzDrainFlip(t *testing.T) {
	s := New(Config{Workers: 1})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	if code, body := get("/v1/readyz"); code != http.StatusOK || body != `{"status":"ready"}` {
		t.Fatalf("pre-drain readyz: %d %s", code, body)
	}
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("pre-drain healthz: %d", code)
	}

	s.StartDrain()
	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || body != `{"status":"draining"}` {
		t.Fatalf("post-drain readyz: %d %s, want 503 draining", code, body)
	}
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("post-drain healthz: %d, want 200 (liveness survives drain)", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown readyz: %d, want 503", code)
	}
}

// TestCanonicalizeMatchesCacheKeys asserts the exported canonical key
// is exactly the serving core's cache key: textual variants of one
// parameter point canonicalize identically, a parameter the body does
// not read leaves the key alone while one it reads splits it, and
// invalid and non-shardable requests report ok=false.
func TestCanonicalizeMatchesCacheKeys(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	canon := func(target string) (string, bool) {
		return s.Canonicalize(httptest.NewRequest("GET", target, nil))
	}

	a, ok := canon("/v1/bounds?n=4&pd=0.20&pi=0.1")
	if !ok {
		t.Fatal("bounds request not shardable")
	}
	b, ok := canon("/v1/bounds?pi=0.1&pd=0.2&n=4")
	if !ok || a != b {
		t.Fatalf("textual variants split the key: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "bounds?") {
		t.Fatalf("key %q lacks endpoint prefix", a)
	}

	mustKey := func(target string) string {
		t.Helper()
		k, ok := canon(target)
		if !ok {
			t.Fatalf("%s: not shardable", target)
		}
		return k
	}
	for _, pair := range [][2]string{
		// seed and mc_samples without mc_n, ba_tol and ba_iters without ba
		{"/v1/bounds?n=4&pd=0.2", "/v1/bounds?n=4&pd=0.2&seed=9&mc_samples=500"},
		{"/v1/bounds?n=4&pd=0.2", "/v1/bounds?n=4&pd=0.2&ba=0&ba_tol=1e-6&ba_iters=10"},
		{"/v1/bounds?n=4&pd=0.2&mc_n=8", "/v1/bounds?n=4&pd=0.2&mc_n=8&ba_iters=10"},
		{"/v1/bounds?n=4&pd=0.2&ba=1", "/v1/bounds?n=4&pd=0.2&ba=1&seed=9"},
		// delay for the protocols whose body omits it
		{"/v1/predict?proto=arq&n=4&pd=0.2", "/v1/predict?proto=arq&n=4&pd=0.2&delay=7"},
		{"/v1/predict?proto=counter&n=4&pd=0.2&pi=0.1", "/v1/predict?proto=counter&n=4&pd=0.2&pi=0.1&delay=0"},
		// experiment ids in registry order, once each
		{"/v1/experiments?id=E1,E5", "/v1/experiments?id=E5,E1,E5"},
		{"/v1/experiments?id=E2,A1", "/v1/experiments?id=A1,%20E2"},
	} {
		if a, b := mustKey(pair[0]), mustKey(pair[1]); a != b {
			t.Errorf("an ignored parameter split the key:\n%s -> %q\n%s -> %q", pair[0], a, pair[1], b)
		}
	}
	for _, pair := range [][2]string{
		{"/v1/bounds?n=4&pd=0.2&mc_n=8", "/v1/bounds?n=4&pd=0.2&mc_n=8&seed=2"},
		{"/v1/bounds?n=4&pd=0.2&mc_n=8", "/v1/bounds?n=4&pd=0.2&mc_n=8&mc_samples=500"},
		{"/v1/bounds?n=4&pd=0.2&ba=1", "/v1/bounds?n=4&pd=0.2&ba=1&ba_iters=3"},
		{"/v1/bounds?n=4&pd=0.2&ba=1", "/v1/bounds?n=4&pd=0.2&ba=1&ba_tol=1e-6"},
		{"/v1/bounds?n=4&pd=0.2", "/v1/bounds?n=4&pd=0.2&sync_capacity=0"},
		{"/v1/predict?proto=delayed&n=4&pd=0.2", "/v1/predict?proto=delayed&n=4&pd=0.2&delay=2"},
		{"/v1/experiments?id=E1", "/v1/experiments?id=E1,E5"},
	} {
		if a, b := mustKey(pair[0]), mustKey(pair[1]); a == b {
			t.Errorf("%s and %s share key %q, but their bodies differ", pair[0], pair[1], a)
		}
	}
	// A merged pair is served from one cache line: the second spelling
	// is a hit with the first one's bytes.
	for _, pair := range [][2]string{
		{"/v1/predict?proto=arq&n=4&pd=0.2", "/v1/predict?proto=arq&n=4&pd=0.2&delay=7"},
		{"/v1/bounds?n=4&pd=0.2", "/v1/bounds?n=4&pd=0.2&seed=9&ba_iters=10"},
	} {
		status, _, first := get(t, ts.URL, pair[0])
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", pair[0], status, first)
		}
		status, hdr, second := get(t, ts.URL, pair[1])
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", pair[1], status, second)
		}
		if got := hdr.Get(CacheHeader); got != "hit" {
			t.Errorf("%s after %s: cache class %q, want hit", pair[1], pair[0], got)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s served other bytes than %s:\n%s\nvs\n%s", pair[1], pair[0], second, first)
		}
	}

	for _, target := range []string{
		"/v1/bounds?n=99&pd=0.2",         // validation failure
		"/v1/experiments",                // catalog, not a pure point
		"/metrics",                       // operational
		"/v1/bounds:batch",               // not GET-shaped
		"/v1/bounds?pd=not-a-num",        // malformed
		"/v1/bounds?seed=x",              // malformed, though the body ignores it
		"/v1/bounds?ba_iters=2001",       // out of range, though the body ignores it
		"/v1/predict?proto=arq&delay=65", // out of range, though the body ignores it
		"/v1/experiments?id=E1,E99",      // unknown id
	} {
		if key, ok := canon(target); ok {
			t.Errorf("%s: unexpectedly shardable (key %q)", target, key)
		}
	}
	for _, target := range []string{
		"/v1/predict?proto=arq&n=4&pd=0.2",
		"/v1/simulate?proto=counter&n=4&pd=0.1&symbols=2000&seed=7",
		"/v1/trace?proto=counter&n=4&pd=0.1&symbols=2000&seed=7",
		"/v1/experiments?id=E1",
	} {
		if _, ok := canon(target); !ok {
			t.Errorf("%s: not shardable, want shardable", target)
		}
	}

	if _, ok := s.Canonicalize(httptest.NewRequest("POST", "/v1/bounds?n=4&pd=0.2", nil)); ok {
		t.Error("POST canonicalized; only GETs are shardable")
	}
}
