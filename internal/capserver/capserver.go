// Package capserver exposes the repository's capacity-estimation
// kernels as a production-shaped HTTP service (DESIGN.md §8):
//
//   - GET /v1/bounds       analytic deletion–insertion capacity bounds
//     (package core), optional exact/Monte-Carlo deletion-channel rates
//     (package delcap) and Blahut–Arimoto cross-checks (infotheory);
//   - GET /v1/predict      analytic protocol rate prediction
//     (syncproto, including DelayedARQ.PredictedRate);
//   - GET /v1/simulate     seeded, fault-injected supervised protocol
//     runs (channel + faultinject + syncproto.Supervisor);
//   - GET /v1/trace        the same run with every channel use
//     tallied: /v1/simulate's body plus assumed vs. observed parameters
//     and bounds (an internal/obs count-only recorder);
//   - GET /v1/experiments  the named experiments registry (catalog and
//     seeded runs);
//   - POST /v1/sessions/{id}/events and GET /v1/sessions[/{id}]
//     streaming sessions: NDJSON per-use event ingest into online
//     (Pd, Pi, Ps) estimators with change-point detection, read back
//     with capacity bounds at the live estimate (internal/session,
//     DESIGN.md §13);
//   - GET /healthz, /metrics, /debug/pprof/ for operations.
//
// Every compute response body is a pure function of the request
// parameters: computations are deterministic in their inputs (seeds
// are explicit request parameters, wall-clock never leaks into a
// body), which is what makes the serving core cacheable. Sessions are
// the deliberate stateful exception — an ingest mutates the session it
// names — but their capacity bounds still route through the cacheable
// core at the quantized estimate. The core is:
//
//	request -> validate -> canonical key -> LRU cache
//	        -> singleflight (concurrent identical requests compute once)
//	        -> bounded worker pool (full queue => 429 + Retry-After)
//	        -> response cached, byte-identical for every later hit
//
// Per-request deadlines bound the wait, not the work: a request that
// times out returns 504 while its computation (if already admitted)
// completes and populates the cache for the next caller. The Server
// owns no listener: the http.Server that mounts Handler stops
// accepting connections and drains in-flight handlers first
// (cluster.Proc does this for cmd/capserverd), then Shutdown drains
// the worker pool.
package capserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/session"
)

// Response headers the serving core attaches. CacheHeader carries the
// serving class of a 200 body; the two timing headers expose the
// request's queue-wait/compute split and are attached only when the
// request carries a trace ID (obs.TraceHeader), so untraced serving
// stays byte-identical to the pre-tracing implementation and pays one
// header lookup.
const (
	CacheHeader        = "X-Capserver-Cache"
	TraceQueueHeader   = "X-Capserver-Queue-Us"
	TraceComputeHeader = "X-Capserver-Compute-Us"
)

// ResultStore is a secondary, durable result cache behind the LRU: a
// miss consults the store before computing, and every successful
// computation is written through. Implementations must be safe for
// concurrent use; Put is best-effort (a failed write costs a future
// recompute, never a wrong answer). The cluster layer plugs its
// content-addressed on-disk store (internal/cluster/casstore) in here,
// which is what lets a restarted node warm-start from disk and lets
// any node sharing the store serve any cached point.
type ResultStore interface {
	// Get returns the stored response body for a store key: the
	// results version and the canonical cache key (storeKey).
	Get(key string) ([]byte, bool)
	// Put stores the response body for a store key.
	Put(key string, body []byte)
}

// resultsVersion names the code that computed a stored body. Every
// durable-store access keys the entry by it in front of the canonical
// key, so a member started over a store that older code filled misses
// those entries and recomputes them instead of serving bytes this code
// would not produce. Bump it with any change to a served body.
// Canonicalize's key, and so ring placement, leaves it out.
const resultsVersion = "results/3"

// storeKey is the durable store's key for a canonical key.
func storeKey(key string) string { return resultsVersion + " " + key }

// Config tunes the serving core. The zero value selects workable
// defaults. A negative size or timeout is a caller's mistake, not
// another way to say zero: New panics naming the field.
type Config struct {
	// Workers is the number of compute workers (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the compute queue; a submission finding the
	// queue full is rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024).
	CacheEntries int
	// RequestTimeout bounds how long a request waits for its result
	// (default 30s). The deadline bounds the wait, not the work: an
	// admitted computation keeps running and populates the cache.
	RequestTimeout time.Duration
	// MaxSymbols caps the message length a /v1/simulate or /v1/trace
	// request may ask for (default 200000). /v1/experiments has its own
	// fixed cap, its default of 20000 symbols.
	MaxSymbols int
	// Metrics, when non-nil, is the obs.Registry the server registers
	// its metric families on, letting an embedding process expose one
	// /metrics page for the service and its own instrumentation. Nil
	// gets a private registry.
	Metrics *obs.Registry
	// Store, when non-nil, is the durable result store consulted on
	// LRU misses and populated on computes (see ResultStore).
	Store ResultStore

	// SessionTTL evicts sessions idle this long from the /v1/sessions
	// store (default 15m). Negative disables eviction. Both meanings
	// belong to session.StoreConfig.TTL, which receives it unchanged.
	SessionTTL time.Duration
	// SessionSweep is the idle-eviction sweep interval (default 1m).
	// Negative disables the janitor goroutine; tests drive
	// Sessions().EvictIdle() directly for determinism.
	SessionSweep time.Duration
	// MaxSessions caps concurrently live sessions (default 1 << 20);
	// ingest for new IDs beyond the cap answers 503.
	MaxSessions int

	// HealthTick, when positive, samples the registry into the health
	// engine's snapshot ring every HealthTick (and is the engine's
	// window-conversion tick). Zero or negative runs no background
	// ticker — tests and harnesses drive TickHealth() directly, which
	// is what makes alert timelines deterministic (default 0).
	HealthTick time.Duration
	// HealthRules is the alert rule set (nil: health.DefaultRules).
	// Callers with user-supplied rules should pre-validate them against
	// the tick via health.NewEngine — New panics on an inconsistent
	// combination, since it cannot return an error.
	HealthRules []*health.Rule
}

// negativeField names the first size or timeout set below zero, or
// returns "".
func (c Config) negativeField() string {
	switch {
	case c.Workers < 0:
		return "Workers"
	case c.QueueDepth < 0:
		return "QueueDepth"
	case c.CacheEntries < 0:
		return "CacheEntries"
	case c.RequestTimeout < 0:
		return "RequestTimeout"
	case c.MaxSymbols < 0:
		return "MaxSymbols"
	case c.MaxSessions < 0:
		return "MaxSessions"
	}
	return ""
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxSymbols == 0 {
		c.MaxSymbols = 200000
	}
	if c.SessionSweep == 0 {
		c.SessionSweep = time.Minute
	}
	return c
}

// Server is the capacity-estimation service.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	pool     *workerPool
	cache    *flightCache
	metrics  *Metrics
	store    ResultStore
	draining atomic.Bool

	// sessions is the live session store behind /v1/sessions;
	// stopJanitor halts its idle-eviction sweeper (set by New, called
	// by Shutdown).
	sessions    *session.Store
	stopJanitor func()

	// health is the alert engine behind /v1/health/alerts; stopHealth
	// halts its sampling ticker (set by New, called by Shutdown).
	health     *health.Engine
	stopHealth func()
}

// New builds a Server with the given configuration. It panics on a
// negative size or timeout, since it cannot return an error; flag
// parsers refuse such values first.
func New(cfg Config) *Server {
	if name := cfg.negativeField(); name != "" {
		panic(fmt.Sprintf("capserver: negative Config.%s", name))
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:   newFlightCache(cfg.CacheEntries),
		metrics: newMetrics(cfg.Metrics),
		store:   cfg.Store,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/bounds", s.handleCompute("bounds", s.buildBounds))
	s.mux.HandleFunc("POST /v1/bounds:batch", s.handleBoundsBatch)
	s.mux.HandleFunc("GET /v1/predict", s.handleCompute("predict", s.buildPredict))
	s.mux.HandleFunc("GET /v1/simulate", s.handleCompute("simulate", s.buildSimulate))
	s.mux.HandleFunc("GET /v1/trace", s.handleCompute("trace", s.buildTrace))
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.initSessions()
	s.initHealth()
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler, for mounting under
// httptest or an outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's live metrics, for tests and embedding.
func (s *Server) Metrics() *Metrics { return s.metrics }

// StartDrain flips readiness: /v1/readyz answers 503 from this moment
// on, so load balancers and cluster peers stop routing new work here
// while in-flight requests complete. The embedding process calls it
// before its http.Server's Shutdown (cluster.Proc.Shutdown does).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Shutdown flips readiness, drains and stops the worker pool so every
// admitted computation finishes before it returns, and stops the
// session janitor and the health ticker. The http.Server mounting
// Handler must be shut down first, so that no handler can submit new
// work. It keeps http.Server.Shutdown's signature; the error is always
// nil.
func (s *Server) Shutdown(context.Context) error {
	s.StartDrain()
	s.pool.close()
	s.stopJanitor()
	s.stopHealth()
	return nil
}

// errQueueFull is the backpressure verdict: the compute queue is full
// and the request was not admitted.
var errQueueFull = errors.New("capserver: compute queue full, retry later")

// errAbandoned reports that every request waiting on a flight went
// away before a worker picked its computation up, so the computation
// was skipped. Only a request that joined the flight in the narrow
// window after the last waiter left can observe it; retrying computes
// fresh.
var errAbandoned = errors.New("capserver: request abandoned before compute started, retry")

// buildFunc validates one endpoint's query parameters and returns the
// request's canonical cache key plus the deferred computation that
// produces the JSON response body. Validation errors are client errors
// (400); compute errors are internal (500).
type buildFunc func(q queryValues) (key string, compute func() ([]byte, error), err error)

// handleCompute is the shared serving path: validate, consult the
// cache, deduplicate in-flight identical requests, run on the worker
// pool with backpressure, respond.
func (s *Server) handleCompute(endpoint string, build buildFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		key, compute, err := build(queryValues{r.URL.Query()})
		if err != nil {
			s.finish(w, endpoint, start, http.StatusBadRequest, errorBody(err), "")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		body, source, timing, err := s.do(ctx, endpoint, endpoint+"?"+key, compute)
		if r.Header.Get(obs.TraceHeader) != "" {
			// The request is part of a cluster trace: expose the
			// queue/compute split so the routing layer's span can
			// attribute where the hop's time went.
			w.Header().Set(TraceQueueHeader, strconv.FormatInt(timing.queue.Microseconds(), 10))
			w.Header().Set(TraceComputeHeader, strconv.FormatInt(timing.compute.Microseconds(), 10))
		}
		switch {
		case err == nil:
			s.finish(w, endpoint, start, http.StatusOK, body, source)
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", retryAfter)
			s.finish(w, endpoint, start, http.StatusTooManyRequests, errorBody(err), "")
		case errors.Is(err, errAbandoned):
			w.Header().Set("Retry-After", retryAfter)
			s.finish(w, endpoint, start, http.StatusServiceUnavailable, errorBody(err), "")
		case errors.Is(err, context.DeadlineExceeded):
			s.finish(w, endpoint, start, http.StatusGatewayTimeout, errorBody(err), "")
		case errors.Is(err, context.Canceled):
			// The client went away; 499 (nginx convention) keeps the
			// metrics honest even though nobody reads the response.
			s.finish(w, endpoint, start, 499, errorBody(err), "")
		default:
			s.finish(w, endpoint, start, http.StatusInternalServerError, errorBody(err), "")
		}
	}
}

// flightTiming is the queue-wait/compute split of a resolved request,
// for the per-hop trace exposition. Cache and store hits report zeros.
type flightTiming struct {
	queue, compute time.Duration
}

// do resolves one computation: cache hit, joining an in-flight
// identical computation, leading one resolved from the durable store,
// or leading a fresh computation through the worker pool. source is
// "hit", "shared", "store" or "miss" respectively. A request whose
// context ends first withdraws from the flight; when every waiter has
// withdrawn before a worker picks the job up, the computation is
// skipped entirely.
func (s *Server) do(ctx context.Context, endpoint, key string, compute func() ([]byte, error)) (body []byte, source string, timing flightTiming, err error) {
	cached, fl, leader := s.cache.lookupOrJoin(key)
	if cached != nil {
		s.metrics.cacheHit()
		return cached, "hit", timing, nil
	}
	stored := false
	if leader {
		s.metrics.cacheMiss()
		var skey string
		if s.store != nil {
			skey = storeKey(key)
			if b, ok := s.store.Get(skey); ok {
				s.metrics.storeHit()
				s.cache.finish(key, fl, b, nil)
				stored = true
			}
		}
		if !stored {
			submitted := time.Now()
			job := func() {
				fl.queue = time.Since(submitted)
				if fl.abandoned() {
					s.metrics.computeAbandoned()
					s.cache.finish(key, fl, nil, errAbandoned)
					return
				}
				defer func() {
					if r := recover(); r != nil {
						s.metrics.computePanic()
						s.cache.finish(key, fl, nil, fmt.Errorf("capserver: %s compute panic: %v", endpoint, r))
					}
				}()
				s.metrics.computeStart(endpoint)
				started := time.Now()
				b, cerr := compute()
				fl.compute = time.Since(started)
				if cerr == nil && s.store != nil {
					s.store.Put(skey, b)
				}
				s.cache.finish(key, fl, b, cerr)
			}
			if !s.pool.trySubmit(job) {
				s.metrics.queueRejected()
				s.cache.finish(key, fl, nil, errQueueFull)
			}
		}
	} else {
		s.metrics.cacheShared()
	}
	select {
	case <-fl.done:
		switch {
		case stored:
			source = "store"
		case leader:
			source = "miss"
		default:
			source = "shared"
		}
		return fl.body, source, flightTiming{queue: fl.queue, compute: fl.compute}, fl.err
	case <-ctx.Done():
		fl.abandon()
		return nil, "", timing, ctx.Err()
	}
}

// finish writes the response and records the request's metrics.
func (s *Server) finish(w http.ResponseWriter, endpoint string, start time.Time, status int, body []byte, source string) {
	if source != "" {
		w.Header().Set(CacheHeader, source)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	s.metrics.observe(endpoint, status, time.Since(start))
}

// handleHealthz reports liveness: the process is up and serving its
// mux. It stays 200 through a drain — liveness and readiness diverge
// exactly there, which is why both exist.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.finish(w, "healthz", time.Now(), http.StatusOK, []byte(`{"status":"ok"}`+"\n"), "")
}

// handleReadyz reports readiness to take new work: 200 while serving,
// 503 from the moment drain begins. Load balancers and cluster peers
// key routing off this, so the flip happens at StartDrain — before any
// connection is refused — giving upstreams a clean signal to fail over.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.finish(w, "readyz", time.Now(), http.StatusServiceUnavailable, []byte(`{"status":"draining"}`+"\n"), "")
		return
	}
	s.finish(w, "readyz", time.Now(), http.StatusOK, []byte(`{"status":"ready"}`+"\n"), "")
}

// Canonicalize maps a request onto the serving core's canonical cache
// key: the exact string the LRU, singleflight and durable store key
// on, with endpoint prefix ("bounds?n=4&pd=0.2&..."). It reports
// ok=false for requests that are not shardable pure functions of their
// parameters — non-GET methods, operational pages, the experiments
// catalog — and for requests that fail parameter validation (the local
// handler will produce the 400). The cluster router uses this to place
// requests on the consistent-hash ring without computing anything.
func (s *Server) Canonicalize(r *http.Request) (key string, ok bool) {
	if r.Method != http.MethodGet {
		return "", false
	}
	var endpoint string
	var build buildFunc
	switch r.URL.Path {
	case "/v1/bounds":
		endpoint, build = "bounds", s.buildBounds
	case "/v1/predict":
		endpoint, build = "predict", s.buildPredict
	case "/v1/simulate":
		endpoint, build = "simulate", s.buildSimulate
	case "/v1/trace":
		endpoint, build = "trace", s.buildTrace
	case "/v1/experiments":
		if r.URL.Query().Get("id") == "" {
			return "", false
		}
		endpoint, build = "experiments", s.buildExperimentsRun
	default:
		return "", false
	}
	k, _, err := build(queryValues{r.URL.Query()})
	if err != nil {
		return "", false
	}
	return endpoint + "?" + k, true
}

// Stored returns the durable store's body for a canonical key (the
// form Canonicalize returns), looked up under this code's results
// version, and counts a store hit when there is one.
// It never computes, never reads or fills the LRU and never joins a
// flight, so a cluster member can serve a non-owned key it finds in a
// shared store without disturbing its own cache or the owner's
// single-flight compute. Without a store it always misses.
func (s *Server) Stored(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	body, ok := s.store.Get(storeKey(key))
	if ok {
		s.metrics.storeHit()
	}
	return body, ok
}

// handleMetrics renders the counters, gauges and latency quantiles,
// under the Prometheus text-format content type (version 0.0.4 is the
// format this exposition implements; scrapers negotiate on it).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.cache.stats(), s.pool.depth())
}

// retryAfter is the Retry-After value, in whole seconds, on every 429
// and 503 response. It is never 0, which clients read as "retry
// immediately", defeating backpressure.
const retryAfter = "1"

// errorBody renders an error as the service's JSON error envelope.
func errorBody(err error) []byte {
	b, merr := marshalBody(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
	if merr != nil {
		return []byte(`{"error":"internal error"}` + "\n")
	}
	return b
}
