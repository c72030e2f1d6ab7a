package cluster

import "repro/internal/obs"

// Metrics is the per-node cluster instrumentation, registered on the
// same obs.Registry as the wrapped capserver so one /metrics page
// carries both layers. Every counter is a deterministic count of
// routing decisions; only which of primary/hedge wins a race is
// timing-dependent, and the harness asserts on the decision counters,
// not the race outcomes.
type Metrics struct {
	reg        *obs.Registry
	ownedLocal *obs.Counter
	storeLocal *obs.Counter
	forwards   *obs.Counter
	hedges     *obs.Counter
	hedgeWins  *obs.Counter
	retries    *obs.Counter
	peerErrors *obs.Counter
	degraded   *obs.Counter
	remote     *obs.Counter

	// Session routing counters. Sessions are stateful, so their routing
	// discipline differs from compute keys (no hedge, no degrade) and
	// they get their own families, deliberately outside NodeCounters:
	// capstat reconciles trace spans against the compute-routing
	// counters only, and session traffic must not perturb that.
	sessionOwned      *obs.Counter
	sessionForwards   *obs.Counter
	sessionRetries    *obs.Counter
	sessionPeerErrors *obs.Counter
}

// NewMetrics registers the node's metric families on reg (a nil reg
// gets a private registry). Registration order is exposition order.
// Pass the wrapped capserver's registry (capserver.Config.Metrics) so
// one /metrics page serves both layers.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg:        reg,
		ownedLocal: reg.Counter("cluster_owned_local_total"),
		storeLocal: reg.Counter("cluster_store_local_total"),
		forwards:   reg.Counter("cluster_forward_total"),
		hedges:     reg.Counter("cluster_hedge_total"),
		hedgeWins:  reg.Counter("cluster_hedge_wins_total"),
		retries:    reg.Counter("cluster_retry_total"),
		peerErrors: reg.Counter("cluster_peer_errors_total"),
		degraded:   reg.Counter("cluster_degraded_total"),
		remote:     reg.Counter("cluster_remote_serve_total"),

		sessionOwned:      reg.Counter("cluster_session_owned_total"),
		sessionForwards:   reg.Counter("cluster_session_forward_total"),
		sessionRetries:    reg.Counter("cluster_session_retry_total"),
		sessionPeerErrors: reg.Counter("cluster_session_peer_errors_total"),
	}
}

// Registry returns the backing registry.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// OwnedLocal returns the number of shardable requests this node
// served because it owns their keys (or received them pre-routed).
func (m *Metrics) OwnedLocal() int64 { return m.ownedLocal.Value() }

// StoreLocal returns the number of non-owned requests this node served
// as their origin from the shared result store, without a hop.
func (m *Metrics) StoreLocal() int64 { return m.storeLocal.Value() }

// Forwards returns the number of requests forwarded toward an owner.
func (m *Metrics) Forwards() int64 { return m.forwards.Value() }

// Hedges returns the number of hedged second requests fired.
func (m *Metrics) Hedges() int64 { return m.hedges.Value() }

// HedgeWins returns the number of forwards answered by the hedge.
func (m *Metrics) HedgeWins() int64 { return m.hedgeWins.Value() }

// Retries returns the number of re-attempts against a peer after a
// retryable failure.
func (m *Metrics) Retries() int64 { return m.retries.Value() }

// PeerErrors returns the number of peer attempts that ended in a
// transport error or retryable status after exhausting retries.
func (m *Metrics) PeerErrors() int64 { return m.peerErrors.Value() }

// Degraded returns the number of requests that fell back to local
// compute because the owning shard was unreachable.
func (m *Metrics) Degraded() int64 { return m.degraded.Value() }

// Remote returns the number of traced pre-routed requests this node
// served on behalf of a forwarding origin. It counts only requests
// carrying a trace ID — it is the counter twin of the "remote" span,
// so trace-derived remote totals reconcile against it exactly while
// untraced probes (the harness's convergence checks) stay invisible
// to both.
func (m *Metrics) Remote() int64 { return m.remote.Value() }

// SessionOwned returns the number of per-session requests this node
// served as the session's ring owner.
func (m *Metrics) SessionOwned() int64 { return m.sessionOwned.Value() }

// SessionForwards returns the number of per-session requests forwarded
// to their owning node.
func (m *Metrics) SessionForwards() int64 { return m.sessionForwards.Value() }

// SessionRetries returns the number of re-attempts of a forwarded
// session read after a retryable failure (ingests never retry: a POST
// is not idempotent through an ambiguous failure).
func (m *Metrics) SessionRetries() int64 { return m.sessionRetries.Value() }

// SessionPeerErrors returns the number of session forwards that failed
// because the owning node was unreachable. Unlike compute keys there
// is no degraded local fallback — session state lives only on the
// owner, and serving it elsewhere would fork the session.
func (m *Metrics) SessionPeerErrors() int64 { return m.sessionPeerErrors.Value() }
