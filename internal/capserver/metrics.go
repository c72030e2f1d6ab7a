package capserver

import (
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Metrics is the serving core's observability, backed by the shared
// obs.Registry: request and status counts, compute executions (the
// cache-correctness witness: deduplicated identical requests bump this
// once), cache and queue events, and per-endpoint log-bucketed latency
// histograms. Families register in the exposition order the service
// has always used, so /metrics output is byte-identical to the
// pre-registry implementation.
type Metrics struct {
	reg       *obs.Registry
	requests  *obs.CounterVec
	computes  *obs.CounterVec
	panics    *obs.Counter
	abandoned *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	shared    *obs.Counter
	stores    *obs.Counter
	entries   *obs.Gauge
	evicted   *obs.Gauge
	inflight  *obs.Gauge
	depth     *obs.Gauge
	rejected  *obs.Counter
	latency   *obs.LatencyVec
}

// newMetrics registers the service's metric families on reg (a nil reg
// gets a private registry). Registration order is exposition order.
// Beyond the serving-core families, every server also exposes the
// Prometheus-convention build-info constant (value pinned to 1, the
// payload in the labels) and the process_ runtime self-metrics; the
// latter sample live runtime state at scrape time and are the one
// exception to the byte-identical exposition contract, which is why
// they register last and carry a prefix consumers can filter on.
func newMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := newServingMetrics(reg)
	reg.GaugeVec("capserver_build_info", "go_version").With(runtime.Version()).Set(1)
	obs.RegisterRuntimeMetrics(reg, time.Now())
	return m
}

// newServingMetrics registers only the serving-core families.
func newServingMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg:       reg,
		requests:  reg.CounterVec("capserver_requests_total", "endpoint", "code"),
		computes:  reg.CounterVec("capserver_compute_total", "endpoint"),
		panics:    reg.Counter("capserver_compute_panics_total"),
		abandoned: reg.Counter("capserver_compute_abandoned_total"),
		hits:      reg.Counter("capserver_cache_hits_total"),
		misses:    reg.Counter("capserver_cache_misses_total"),
		shared:    reg.Counter("capserver_cache_shared_total"),
		stores:    reg.Counter("capserver_store_hits_total"),
		entries:   reg.Gauge("capserver_cache_entries"),
		evicted:   reg.Gauge("capserver_cache_evictions_total"),
		inflight:  reg.Gauge("capserver_cache_inflight"),
		depth:     reg.Gauge("capserver_queue_depth"),
		rejected:  reg.Counter("capserver_queue_rejected_total"),
		latency:   reg.LatencyVec("capserver_latency_ms", "endpoint"),
	}
}

// Registry returns the backing registry, so an embedding process can
// expose the service's metrics alongside its own.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// observe records one served request.
func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(status)).Inc()
	m.latency.Observe(endpoint, d)
}

// computeStart records one underlying computation actually executing
// for the endpoint (cache hits and deduplicated waiters do not count).
func (m *Metrics) computeStart(endpoint string) { m.computes.With(endpoint).Inc() }

// ComputeCalls returns how many computations have executed for the
// endpoint; the singleflight tests assert on it.
func (m *Metrics) ComputeCalls(endpoint string) int64 { return m.computes.Value(endpoint) }

// Requests returns how many requests the endpoint has answered with
// the given status.
func (m *Metrics) Requests(endpoint string, status int) int64 {
	return m.requests.Value(endpoint, strconv.Itoa(status))
}

func (m *Metrics) cacheHit()         { m.hits.Inc() }
func (m *Metrics) cacheMiss()        { m.misses.Inc() }
func (m *Metrics) cacheShared()      { m.shared.Inc() }
func (m *Metrics) storeHit()         { m.stores.Inc() }
func (m *Metrics) queueRejected()    { m.rejected.Inc() }
func (m *Metrics) computePanic()     { m.panics.Inc() }
func (m *Metrics) computeAbandoned() { m.abandoned.Inc() }

// CacheHits returns the number of requests served from the LRU cache.
func (m *Metrics) CacheHits() int64 { return m.hits.Value() }

// CacheShared returns the number of requests that joined an in-flight
// identical computation instead of recomputing.
func (m *Metrics) CacheShared() int64 { return m.shared.Value() }

// StoreHits returns the number of LRU misses resolved from the
// durable result store instead of recomputing, plus the Stored
// lookups that found their key.
func (m *Metrics) StoreHits() int64 { return m.stores.Value() }

// Abandoned returns the number of queued computations skipped because
// every waiting request went away first.
func (m *Metrics) Abandoned() int64 { return m.abandoned.Value() }

// QueueRejected returns the number of requests rejected with 429.
func (m *Metrics) QueueRejected() int64 { return m.rejected.Value() }

// sync copies the cache and queue state into their gauges. Both the
// exposition and the health engine's registry snapshot want current
// values, so the sampling is shared between them.
func (m *Metrics) sync(cs CacheStats, queueDepth int) {
	m.entries.Set(int64(cs.Entries))
	m.evicted.Set(cs.Evictions)
	m.inflight.Set(int64(cs.Inflight))
	m.depth.Set(int64(queueDepth))
}

// write syncs the gauges, then renders the whole registry in the
// deterministic Prometheus text format.
func (m *Metrics) write(w io.Writer, cs CacheStats, queueDepth int) {
	m.sync(cs, queueDepth)
	m.reg.WriteProm(w)
}
