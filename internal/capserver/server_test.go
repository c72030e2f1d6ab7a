package capserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer starts a Server behind httptest and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// parkingStore is a ResultStore whose Put parks, for every key that
// contains park, until release: the worker writing that body through
// stays busy, so a test can fill the pool or hold a flight open without
// depending on how long a computation takes. Other keys, and every key
// once released, pass straight through; Get always misses.
type parkingStore struct {
	park          string
	parked, gate  chan struct{}
	enter, unpark sync.Once
}

// newParkedServer starts a test server whose result store parks the
// keys holding park (every key for ""). Cleanup releases the store
// before the server shuts down, so a failed test leaves no worker
// parked.
func newParkedServer(t *testing.T, cfg Config, park string) (*Server, *httptest.Server, *parkingStore) {
	t.Helper()
	st := &parkingStore{park: park, parked: make(chan struct{}), gate: make(chan struct{})}
	cfg.Store = st
	srv, ts := newTestServer(t, cfg)
	t.Cleanup(st.release) // cleanups run last-in first-out
	return srv, ts, st
}

func (s *parkingStore) Get(string) ([]byte, bool) { return nil, false }

func (s *parkingStore) Put(key string, _ []byte) {
	if strings.Contains(key, s.park) {
		s.enter.Do(func() { close(s.parked) })
		<-s.gate
	}
}

func (s *parkingStore) release() { s.unpark.Do(func() { close(s.gate) }) }

// awaitParked waits until a worker is parked in Put.
func (s *parkingStore) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-s.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no computation reached the result store")
	}
}

// waitFor polls cond until it holds or 10 s pass, and reports whether
// it held.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// get fetches a path and returns status, headers and body.
func get(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestEndpointsServeValidJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	paths := []string{
		"/healthz",
		"/v1/bounds?n=4&pd=0.2&pi=0.1",
		"/v1/bounds?n=4&pd=0.2&exact_n=6&mc_n=12&mc_samples=2000&ba=1",
		"/v1/bounds?n=4&pd=0.25&sync_capacity=100",
		"/v1/predict?proto=arq&n=4&pd=0.25",
		"/v1/predict?proto=counter&n=4&pd=0.2&pi=0.1",
		"/v1/predict?proto=delayed&n=4&pd=0.25&delay=2",
		"/v1/simulate?proto=counter&n=4&pd=0.1&pi=0.02&symbols=1000&seed=3&inject=outage%3D0.2",
		"/v1/simulate?proto=naive&n=4&pd=0.1&symbols=1000",
		"/v1/experiments",
		"/v1/experiments?id=E1&symbols=1000",
	}
	for _, p := range paths {
		status, hdr, body := get(t, ts.URL, p)
		if status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", p, status, body)
			continue
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", p, ct)
		}
		if !json.Valid(body) {
			t.Errorf("%s: invalid JSON body: %s", p, body)
		}
	}
}

func TestValidationRejectsAtBoundary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	paths := []string{
		"/v1/bounds?pd=NaN",
		"/v1/bounds?pd=Inf",
		"/v1/bounds?pd=1.5",
		"/v1/bounds?pd=0.6&pi=0.6",
		"/v1/bounds?n=0",
		"/v1/bounds?n=17",
		"/v1/bounds?exact_n=13",
		"/v1/bounds?n=16&ba=1",
		"/v1/bounds?ba=1&ba_tol=0",
		"/v1/bounds?ba=1&ba_iters=2001",
		"/v1/bounds?seed=-1",
		"/v1/bounds?sync_capacity=-1",
		"/v1/bounds?sync_capacity=NaN",
		"/v1/predict?proto=warp",
		"/v1/predict?proto=arq&pi=0.1",
		"/v1/predict?proto=arq&delay=65",
		"/v1/predict",
		"/v1/simulate?proto=counter&symbols=0",
		"/v1/simulate?proto=arq&pi=0.2",
		"/v1/simulate?proto=counter&inject=meteor%3D0.5",
		"/v1/simulate?proto=counter&inject=outage%3D2",
		// A drift bound of 0.5 or more parses as a magnitude but
		// cannot build: the extra Pd and Pi would sum to 1 or more.
		"/v1/simulate?proto=counter&n=4&pd=0.1&symbols=2000&inject=drift%3D0.6",
		"/v1/simulate?proto=counter&inject=drift%3D0.5",
		"/v1/trace?proto=counter&n=4&pd=0.1&symbols=2000&inject=drift%3D0.6",
		"/v1/trace?proto=counter&inject=drift%3D0.5",
		"/v1/experiments?id=E999",
		"/v1/experiments?id=E1&quanta=99999999",
		"/v1/experiments?id=E7&symbols=20001",
	}
	for _, p := range paths {
		status, _, body := get(t, ts.URL, p)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", p, status, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", p, body)
		}
	}
}

// TestRunsOverDeadChannelFail checks that ARQ, with or without a
// feedback delay, over a channel that deletes every use is a completed
// supervised run whose status is failed, on both run endpoints.
func TestRunsOverDeadChannelFail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, proto := range []string{"arq", "delayed"} {
		for _, endpoint := range []string{"/v1/simulate", "/v1/trace"} {
			p := endpoint + "?proto=" + proto + "&n=4&pd=1&symbols=500"
			status, _, body := get(t, ts.URL, p)
			if status != http.StatusOK {
				t.Errorf("%s: status %d, want 200 (body %s)", p, status, body)
				continue
			}
			var resp SimulateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Status != "failed" {
				t.Errorf("%s: status %q, want failed", p, resp.Status)
			}
		}
	}
}

func TestPredictDelayedMatchesFormula(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := get(t, ts.URL, "/v1/predict?proto=delayed&n=4&pd=0.25&delay=2")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// N(1-Pd)/(1+delay) = 4*0.75/3 = 1.
	if resp.PredictedRatePerUse != 1 {
		t.Errorf("predicted rate %v, want 1", resp.PredictedRatePerUse)
	}
}

func TestBoundsDegradedBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := get(t, ts.URL, "/v1/bounds?n=4&pd=0.25&sync_capacity=100")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BoundsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil || resp.Degraded.Corrected != 75 {
		t.Errorf("degraded block = %+v, want corrected 75", resp.Degraded)
	}
}

// TestDeletionRatesServeZeros checks that the exact and Monte-Carlo
// fields are served whenever computed, zeros included: at pd=1 both
// rates are 0, and seed=0 is a Monte-Carlo seed like any other.
func TestDeletionRatesServeZeros(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		query string
		seed  float64
	}{
		{"n=4&pd=1&exact_n=6&mc_n=6&mc_samples=100", 1},
		{"n=4&pd=1&exact_n=6&mc_n=6&mc_samples=100&seed=0", 0},
	} {
		status, _, body := get(t, ts.URL, "/v1/bounds?"+tc.query)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.query, status, body)
		}
		var resp struct {
			Deletion map[string]float64 `json:"deletion"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for key, want := range map[string]float64{"exact_rate": 0, "mc_rate": 0, "mc_seed": tc.seed} {
			if got, ok := resp.Deletion[key]; !ok || got != want {
				t.Errorf("%s: %s = %v (present %t), want %v", tc.query, key, got, ok, want)
			}
		}
	}
}

func TestExperimentsRunAndCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := get(t, ts.URL, "/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("catalog status %d", status)
	}
	var cat CatalogResponse
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Experiments) < 18 { // E1..E13 + A1..A5
		t.Errorf("catalog lists %d experiments, want >= 18", len(cat.Experiments))
	}
	status, _, body = get(t, ts.URL, "/v1/experiments?id=E1,E4&symbols=1000&quanta=10000&coded_symbols=50")
	if status != http.StatusOK {
		t.Fatalf("run status %d: %s", status, body)
	}
	var resp ExperimentsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 2 || resp.Tables[0].ID != "E1" || resp.Tables[1].ID != "E4" {
		t.Errorf("tables = %d entries, want E1 then E4", len(resp.Tables))
	}
}

// TestConcurrentIdenticalRequestsComputeOnce is the cache-correctness
// guarantee: racing identical requests share one underlying
// computation and receive byte-identical bodies. Run under -race by
// the `make race` gate.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	// The computation parks in the store's Put, so every client arrives
	// while it is in flight, however long the computation itself takes.
	srv, ts, st := newParkedServer(t, Config{}, "")
	const clients = 24
	const path = "/v1/bounds?n=6&pd=0.2&pi=0.05"
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := get(t, ts.URL, path)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	// Release the flight once every other client has joined it; if one
	// never does, the counts below say so.
	st.awaitParked(t)
	waitFor(func() bool { return srv.Metrics().CacheShared() == clients-1 })
	st.release()
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := srv.Metrics().ComputeCalls("bounds"); got != 1 {
		t.Errorf("compute calls = %d, want exactly 1", got)
	}
	if hits, shared := srv.Metrics().CacheHits(), srv.Metrics().CacheShared(); hits+shared != clients-1 {
		t.Errorf("hits %d + shared %d = %d, want %d", hits, shared, hits+shared, clients-1)
	}
}

// TestSimulateDeterministicAcrossWorkers locks the serving determinism
// contract: a fixed-seed /v1/simulate body is byte-identical across
// fresh servers with different worker-pool sizes, and across repeat
// (cached) fetches.
func TestSimulateDeterministicAcrossWorkers(t *testing.T) {
	const path = "/v1/simulate?proto=counter&n=4&pd=0.1&pi=0.02&symbols=4000&seed=42&inject=outage%3D0.2%3Bjam%3D0.1"
	var ref []byte
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, Config{Workers: workers})
		for fetch := 0; fetch < 2; fetch++ {
			status, _, body := get(t, ts.URL, path)
			if status != http.StatusOK {
				t.Fatalf("workers=%d fetch=%d: status %d: %s", workers, fetch, status, body)
			}
			if ref == nil {
				ref = body
			} else if !bytes.Equal(ref, body) {
				t.Fatalf("workers=%d fetch=%d: body differs:\n%s\nvs\n%s", workers, fetch, body, ref)
			}
		}
	}
	var resp SimulateResponse
	if err := json.Unmarshal(ref, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status == "" || resp.Delivered == 0 {
		t.Errorf("degenerate simulate response: %s", ref)
	}
}

// TestQueueFullBackpressure floods a 1-worker, depth-1 server with
// distinct slow requests: the overflow must be rejected with 429 +
// Retry-After (not block, not crash), and the server must keep serving
// afterwards.
func TestQueueFullBackpressure(t *testing.T) {
	// The first computation parks in the store's Put and holds the only
	// worker, so the burst overflows the depth-1 queue however long a
	// computation takes; it is released once a rejection has come back.
	srv, ts, st := newParkedServer(t, Config{Workers: 1, QueueDepth: 1}, "")
	const clients = 12
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		counts     = map[int]int{}
		retryAfter string
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct pd per client: no two requests share a cache
			// line or a flight, so each needs its own pool slot.
			path := fmt.Sprintf("/v1/bounds?n=6&pd=0.%02d", 10+i)
			status, hdr, _ := get(t, ts.URL, path)
			mu.Lock()
			counts[status]++
			if status == http.StatusTooManyRequests && hdr.Get("Retry-After") != "" {
				retryAfter = hdr.Get("Retry-After")
			}
			mu.Unlock()
		}(i)
	}
	waitFor(func() bool { return srv.Metrics().QueueRejected() > 0 })
	st.release()
	wg.Wait()
	if counts[200]+counts[429] != clients {
		t.Fatalf("status counts %v, want only 200s and 429s totalling %d", counts, clients)
	}
	if counts[429] == 0 {
		t.Fatalf("no 429s out of %d clients on a depth-1 queue: %v", clients, counts)
	}
	if counts[200] == 0 {
		t.Fatalf("no successes during the burst: %v", counts)
	}
	if retryAfter == "" {
		t.Error("429 responses carried no Retry-After header")
	}
	if got := srv.Metrics().QueueRejected(); got != int64(counts[429]) {
		t.Errorf("queue rejections metric %d != observed 429s %d", got, counts[429])
	}
	// The server must still serve after the burst.
	if status, _, _ := get(t, ts.URL, "/v1/bounds?n=4&pd=0.2"); status != http.StatusOK {
		t.Errorf("post-burst request status %d", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL, "/v1/bounds?n=4&pd=0.2")
	get(t, ts.URL, "/v1/bounds?n=4&pd=0.2")
	status, hdr, body := get(t, ts.URL, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`capserver_requests_total{endpoint="bounds",code="200"} 2`,
		"capserver_cache_hits_total 1",
		"capserver_cache_misses_total 1",
		`capserver_compute_total{endpoint="bounds"} 1`,
		`capserver_latency_ms_count{endpoint="bounds"} 2`,
		"capserver_queue_depth 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestCacheHeaderClasses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, hdr, _ := get(t, ts.URL, "/v1/bounds?n=4&pd=0.3")
	if got := hdr.Get("X-Capserver-Cache"); got != "miss" {
		t.Errorf("first fetch cache class %q, want miss", got)
	}
	_, hdr, _ = get(t, ts.URL, "/v1/bounds?n=4&pd=0.3")
	if got := hdr.Get("X-Capserver-Cache"); got != "hit" {
		t.Errorf("second fetch cache class %q, want hit", got)
	}
	// A textual variant of the same parameters shares the cache line:
	// canonical keys are built from parsed values.
	_, hdr, _ = get(t, ts.URL, "/v1/bounds?n=4&pd=0.30&pi=0")
	if got := hdr.Get("X-Capserver-Cache"); got != "hit" {
		t.Errorf("canonicalized variant cache class %q, want hit", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newFlightCache(2)
	for i, key := range []string{"a", "b", "c"} {
		_, fl, leader := c.lookupOrJoin(key)
		if !leader {
			t.Fatalf("key %d: not leader", i)
		}
		c.finish(key, fl, []byte(key), nil)
	}
	if s := c.stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", s)
	}
	if body, _, _ := c.lookupOrJoin("a"); body != nil {
		t.Error("oldest key survived beyond capacity")
	}
	if body, _, _ := c.lookupOrJoin("c"); body == nil {
		t.Error("newest key missing")
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := newFlightCache(2)
	_, fl, _ := c.lookupOrJoin("k")
	c.finish("k", fl, nil, fmt.Errorf("boom"))
	if body, _, leader := c.lookupOrJoin("k"); body != nil || !leader {
		t.Error("failed computation was cached; retry should lead a fresh flight")
	}
}

// TestNewRefusesNegativeSizes pins that a negative size or timeout is
// refused by name instead of turning into a default or, for
// MaxSessions, into a cap that answers every first ingest with 503.
func TestNewRefusesNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Workers", Config{Workers: -1}},
		{"QueueDepth", Config{QueueDepth: -1}},
		{"CacheEntries", Config{CacheEntries: -1}},
		{"RequestTimeout", Config{RequestTimeout: -time.Second}},
		{"MaxSymbols", Config{MaxSymbols: -1}},
		{"MaxSessions", Config{MaxSessions: -5}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Config."+tc.field) {
					t.Errorf("panic %q, want one naming Config.%s", msg, tc.field)
				}
			}()
			tc.cfg.SessionSweep = -1
			srv := New(tc.cfg)
			srv.Shutdown(context.Background())
		})
	}
}
