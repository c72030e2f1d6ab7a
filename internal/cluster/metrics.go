package cluster

import "repro/internal/obs"

// route is one routing outcome a node counts.
type route int

// The routing outcomes, in exposition order.
const (
	routeOwned route = iota
	routeStoreLocal
	routeForward
	routeHedge
	routeHedgeWin
	routeRetry
	routePeerError
	routeDegraded
	routeRemote
	routeSessionOwned
	routeSessionForward
	routeSessionRetry
	routeSessionPeerError
	numRoutes
)

// routes is the one list of routing outcomes. Each row names the
// counter family /metrics exposes and, for a traced outcome, the
// request-span path capstat reconciles that counter against (the
// span is emitted at the program point the counter increments).
//
// A peer error has no span: an errored attempt serves nobody. The
// remote counter moves only on hops that carry a trace ID, so it is
// the exact twin of the remote span and untraced probes (the harness's
// convergence checks) stay invisible to both. Sessions are never
// traced, so their rows are never reconciled; they never hedge or
// degrade either, because a second node serving a session would fork
// its state.
var routes = [numRoutes]struct{ family, span string }{
	routeOwned:            {"cluster_owned_local_total", obs.PathOwned},
	routeStoreLocal:       {"cluster_store_local_total", obs.PathStoreLocal},
	routeForward:          {"cluster_forward_total", obs.PathForward},
	routeHedge:            {"cluster_hedge_total", obs.PathHedge},
	routeHedgeWin:         {"cluster_hedge_wins_total", HedgeWinPath},
	routeRetry:            {"cluster_retry_total", obs.PathRetry},
	routePeerError:        {"cluster_peer_errors_total", ""},
	routeDegraded:         {"cluster_degraded_total", obs.PathDegraded},
	routeRemote:           {"cluster_remote_serve_total", obs.PathRemote},
	routeSessionOwned:     {"cluster_session_owned_total", ""},
	routeSessionForward:   {"cluster_session_forward_total", ""},
	routeSessionRetry:     {"cluster_session_retry_total", ""},
	routeSessionPeerError: {"cluster_session_peer_errors_total", ""},
}

// Metrics is the per-node cluster instrumentation: one counter per
// row of routes, registered on the same obs.Registry as the wrapped
// capserver so one /metrics page carries both layers. Every counter is
// a deterministic count of routing decisions; only which of
// primary/hedge wins a race is timing-dependent, and the harness
// asserts on the decision counters, not the race outcomes.
type Metrics struct {
	reg      *obs.Registry
	counters [numRoutes]*obs.Counter
}

// NewMetrics registers the node's metric families on reg (a nil reg
// gets a private registry), in the order of routes, which is
// exposition order. Pass the wrapped capserver's registry
// (capserver.Config.Metrics) so one /metrics page serves both layers.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{reg: reg}
	for r, row := range routes {
		m.counters[r] = reg.Counter(row.family)
	}
	return m
}

// Registry returns the backing registry.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// inc counts one occurrence of r.
func (m *Metrics) inc(r route) { m.counters[r].Inc() }

// count returns the occurrences of r so far.
func (m *Metrics) count(r route) int64 { return m.counters[r].Value() }

// OwnedLocal returns the number of shardable requests this node
// served as their origin because it owns their keys.
func (m *Metrics) OwnedLocal() int64 { return m.count(routeOwned) }

// Forwards returns the number of requests forwarded toward an owner.
func (m *Metrics) Forwards() int64 { return m.count(routeForward) }

// Hedges returns the number of hedged second requests fired.
func (m *Metrics) Hedges() int64 { return m.count(routeHedge) }

// Retries returns the number of re-attempts against a peer after a
// retryable failure.
func (m *Metrics) Retries() int64 { return m.count(routeRetry) }

// Degraded returns the number of requests that fell back to local
// compute because the owning shard was unreachable.
func (m *Metrics) Degraded() int64 { return m.count(routeDegraded) }
