package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/capserver"
	"repro/internal/obs"
)

// Forwarding headers. ForwardedHeader marks a request that has
// already been routed — the receiving node serves it locally without
// re-consulting the ring, which bounds every request to at most one
// forwarding hop and makes routing loops impossible by construction.
const (
	// ForwardedHeader carries the name of the node (or harness) that
	// routed the request here.
	ForwardedHeader = "X-Capserver-Forwarded"
	// PeerHeader names the peer that actually served a forwarded
	// response.
	PeerHeader = "X-Capserver-Peer"
	// HedgeHeader marks a forwarded response won by the hedged second
	// request.
	HedgeHeader = "X-Capserver-Hedge"
	// DegradedHeader names the unreachable owner when a node fell back
	// to computing a non-owned key locally.
	DegradedHeader = "X-Capserver-Degraded"
)

// Config tunes a cluster node. The zero value is not serviceable: the
// Self name and Membership are required.
type Config struct {
	// Self is this node's name in the membership.
	Self string
	// Membership is the static cluster membership (including Self).
	Membership Membership
	// HedgeDelay is the deterministic delay after which a forward
	// still waiting on the owner fires a second request at the next
	// replica (default 25ms). Zero keeps the default; a negative value
	// disables hedging.
	HedgeDelay time.Duration
	// PeerBackoff is the base of the deterministic exponential backoff
	// between retries: backoff << attempt, like the PR-2 Supervisor's
	// use-budget backoff translated to wall clock (default 10ms).
	PeerBackoff time.Duration
	// Client overrides the forwarding HTTP client (default: a fresh
	// client whose 30s timeout bounds one peer round trip).
	Client *http.Client
	// Metrics, when non-nil, is the registry the node's counters
	// register on — pass the wrapped capserver's registry to serve one
	// /metrics page for both layers.
	Metrics *Metrics
	// Tracer, when non-nil, records one request span per hop this node
	// takes part in (DESIGN.md §12). Nil keeps the untraced fast path:
	// no IDs are minted, incoming trace headers are stripped, and the
	// owned-local serve adds zero allocations.
	Tracer *obs.Tracer
	// TraceSeed distinguishes incarnations of the same member in trace
	// IDs: a restarted node begins its span sequence at 1 again, so the
	// process that restarts it must hand the new incarnation a fresh
	// seed or replayed IDs would collide.
	TraceSeed uint64
}

// peerAttempts bounds the tries against an owner: 1 initial attempt
// plus 1 retry.
const peerAttempts = 2

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.PeerBackoff <= 0 {
		c.PeerBackoff = 10 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// localServer is the slice of capserver.Server the node needs: the
// request handler, the canonical-key router and the store-only lookup.
// Declared as an interface so node tests can substitute instrumented
// locals.
type localServer interface {
	Handler() http.Handler
	Canonicalize(r *http.Request) (key string, ok bool)
	Stored(key string) (body []byte, ok bool)
}

// Node routes requests for one member of a capserver cluster. It
// wraps the local capserver: shardable requests it owns (and every
// non-shardable or already-forwarded request) serve locally; a
// non-owned key already in the shared result store is served from
// there; the rest forward to their owner with hedging, bounded
// deterministic retry, and degradation to local compute when the
// owner is unreachable.
type Node struct {
	cfg     Config
	ring    *Ring
	local   localServer
	metrics *Metrics
	// seq numbers the requests this node originates, for trace IDs.
	seq atomic.Uint64
}

// NewNode builds the router for Self within the membership.
func NewNode(local localServer, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if local == nil {
		return nil, fmt.Errorf("cluster: node needs a local server")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: node needs a Self name")
	}
	if cfg.Membership.URL(cfg.Self) == "" {
		return nil, fmt.Errorf("cluster: self %q is not in the membership", cfg.Self)
	}
	ring, err := NewRing(cfg.Membership.Names())
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	return &Node{cfg: cfg, ring: ring, local: local, metrics: cfg.Metrics}, nil
}

// Metrics returns the node's routing counters.
func (n *Node) Metrics() *Metrics { return n.metrics }

// Ring returns the node's placement ring (tests and diagnostics).
func (n *Node) Ring() *Ring { return n.ring }

// Handler returns the node's HTTP handler: the cluster router in
// front of the local capserver mux.
func (n *Node) Handler() http.Handler { return http.HandlerFunc(n.serveHTTP) }

func (n *Node) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == StatusPath {
		n.serveStatus(w, r)
		return
	}
	if origin := r.Header.Get(ForwardedHeader); origin != "" {
		// Pre-routed: serve locally, never forward again. A trace ID on
		// the hop is trusted — the forwarding origin minted it — and
		// recorded as a remote span; without one (tracing off, or an
		// untraced probe) the header is stripped so a stale ID cannot
		// leak into the response.
		if id := r.Header.Get(obs.TraceHeader); id != "" && n.cfg.Tracer.Enabled() {
			n.metrics.remote.Inc()
			n.serveTraced(w, r, id, obs.PathRemote, origin)
			return
		}
		r.Header.Del(obs.TraceHeader)
		n.local.Handler().ServeHTTP(w, r)
		return
	}
	// This node is the request's origin: it mints the trace ID itself,
	// so a client-supplied one is always stripped (spoofed IDs must not
	// enter the cluster's accounting).
	r.Header.Del(obs.TraceHeader)
	if id, ok := capserver.SessionRouteID(r); ok {
		n.routeSession(w, r, id)
		return
	}
	key, ok := n.local.Canonicalize(r)
	if !ok {
		n.local.Handler().ServeHTTP(w, r)
		return
	}
	owner := n.ring.Owner(key)
	if owner == n.cfg.Self {
		n.metrics.ownedLocal.Inc()
		if n.cfg.Tracer.Enabled() {
			n.serveTraced(w, r, n.requestID(key), obs.PathOwned, "")
			return
		}
		n.local.Handler().ServeHTTP(w, r)
		return
	}
	id := ""
	if n.cfg.Tracer.Enabled() {
		id = n.requestID(key)
	}
	if n.serveStored(w, key, id) {
		return
	}
	n.forward(w, r, key, owner, id)
}

// serveStored serves a non-owned key from the shared result store when
// the store holds it, and reports whether it did. The stored body is
// the exact response the owner would relay (bodies are pure functions
// of their canonical keys, and the store verifies each entry), so the
// hop buys nothing; only a miss needs the owner's single-flight
// compute. The counter and, on a traced request, the terminal
// store-local span are recorded together after the write.
func (n *Node) serveStored(w http.ResponseWriter, key, id string) bool {
	var start time.Time
	if id != "" {
		start = time.Now()
	}
	body, ok := n.local.Stored(key)
	if !ok {
		return false
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(capserver.CacheHeader, "store")
	if id != "" {
		h.Set(obs.TraceHeader, id)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	n.metrics.storeLocal.Inc()
	if id != "" {
		n.cfg.Tracer.ReqSpan(obs.ReqSpan{
			ID:      id,
			Node:    n.cfg.Self,
			Path:    obs.PathStoreLocal,
			Status:  http.StatusOK,
			Cache:   "store",
			ServeUS: time.Since(start).Microseconds(),
		})
	}
	return true
}

// SessionRingKey is the ring keyspace prefix for session ownership.
// Session keys live in the same ring as compute keys but a disjoint
// namespace: "session/{id}" can never collide with an endpoint-
// prefixed canonical cache key ("bounds?...").
const SessionRingKey = "session/"

// routeSession places one per-session request (ingest or snapshot
// read) on the ring by session ID. Sessions are stateful, so the
// discipline is stricter than for compute keys: the owner is the only
// node that may serve the request. There is no hedge (a second node
// would create a divergent twin of the session), no degraded local
// fallback (same reason), and an ingest is never retried through an
// ambiguous failure (a POST that may have landed must not be replayed
// — the session's ordering check would reject it, but the client
// deserves the first error, not a confusing 409). A dead owner
// surfaces as 502; the store-backed restart path in the harness shows
// the session resuming once the owner returns.
func (n *Node) routeSession(w http.ResponseWriter, r *http.Request, id string) {
	key := SessionRingKey + id
	owner := n.ring.Owner(key)
	if owner == n.cfg.Self {
		n.metrics.sessionOwned.Inc()
		n.local.Handler().ServeHTTP(w, r)
		return
	}
	n.metrics.sessionForwards.Inc()
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: read request body: %w", err))
			return
		}
		body = b
	}
	attempts := 1
	if r.Method == http.MethodGet {
		attempts = peerAttempts
	}
	base := n.cfg.Membership.URL(owner)
	uri := r.URL.RequestURI()
	var last peerResult
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			n.metrics.sessionRetries.Inc()
			backoff := n.cfg.PeerBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				writeJSONError(w, 499, r.Context().Err())
				return
			}
		}
		last = n.sessionRoundTrip(r, base, owner, uri, body)
		if last.err == nil {
			h := w.Header()
			if ct := last.header.Get("Content-Type"); ct != "" {
				h.Set("Content-Type", ct)
			}
			if ra := last.header.Get("Retry-After"); ra != "" {
				h.Set("Retry-After", ra)
			}
			h.Set(PeerHeader, owner)
			w.WriteHeader(last.status)
			_, _ = w.Write(last.body)
			return
		}
	}
	n.metrics.sessionPeerErrors.Inc()
	writeJSONError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: session owner %s unreachable: %v", owner, last.err))
}

// sessionRoundTrip performs one forwarded session request, preserving
// the method and body. Only transport failures are errors; every HTTP
// status — including 429/503 backpressure — is the owner's
// authoritative answer about its own session state. (Retryable-status
// laundering would be wrong here: a 503 from the owner means "this
// session's node is shedding load", and no other node can answer
// instead.)
func (n *Node) sessionRoundTrip(r *http.Request, base, peer, uri string, body []byte) peerResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+uri, rd)
	if err != nil {
		return peerResult{peer: peer, err: err}
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return peerResult{peer: peer, err: err}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return peerResult{peer: peer, err: err}
	}
	return peerResult{status: resp.StatusCode, header: resp.Header, body: respBody, peer: peer}
}

// writeJSONError renders an error in capserver's JSON error envelope,
// so cluster-originated failures read like local ones.
func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}

// peerResult is one peer attempt's outcome.
type peerResult struct {
	status int
	header http.Header
	body   []byte
	peer   string
	hedged bool
	err    error
}

// forward resolves a non-owned key: primary attempts against the
// owner (bounded retry, deterministic backoff), a hedged second
// request at the next replica once the deterministic hedge delay
// elapses, and local degraded compute if every peer path fails. The
// first successful response wins; the loser's context is canceled.
// A non-empty id traces the attempt: spans are emitted at the same
// program points the counters increment (hedge at the timer, retry in
// tryPeer, the forward outcome in writePeerResponse or degrade), which
// is what lets capstat reconcile trace totals against counters exactly.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, key, owner, id string) {
	n.metrics.forwards.Inc()
	uri := r.URL.RequestURI()
	pctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	results := make(chan peerResult, 2)
	go func() {
		results <- n.tryPeer(pctx, owner, uri, peerAttempts, false, id)
	}()
	inflight := 1

	// The hedge target is the next distinct replica on the ring —
	// the peer that inherits the owner's arc if it leaves, so the one
	// most likely to have the point warm in a shared store.
	hedge := ""
	for _, rep := range n.ring.Replicas(key, len(n.ring.names)) {
		if rep != owner && rep != n.cfg.Self {
			hedge = rep
			break
		}
	}
	var hedgeTimer <-chan time.Time
	if hedge != "" && n.cfg.HedgeDelay > 0 {
		t := time.NewTimer(n.cfg.HedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}

race:
	for inflight > 0 {
		select {
		case res := <-results:
			inflight--
			if res.err == nil {
				if res.hedged {
					n.metrics.hedgeWins.Inc()
				}
				n.writePeerResponse(w, res, owner, id)
				return
			}
			n.metrics.peerErrors.Inc()
			// When the primary is lost with no hedge racing, the loop
			// exits and degrades immediately: waiting out the hedge
			// timer buys nothing, and a non-owner peer would do the
			// same compute this node can do itself.
		case <-hedgeTimer:
			hedgeTimer = nil
			n.metrics.hedges.Inc()
			if id != "" {
				n.cfg.Tracer.ReqSpan(obs.ReqSpan{
					ID: id, Node: n.cfg.Self, Path: obs.PathHedge, Peer: hedge,
				})
			}
			inflight++
			go func() {
				results <- n.tryPeer(pctx, hedge, uri, 1, true, id)
			}()
		case <-r.Context().Done():
			// The client is gone; the local handler translates the
			// dead context into its 499 accounting.
			break race
		}
	}
	n.degrade(w, r, owner, id)
}

// degrade serves a non-owned key locally because the owning shard is
// unreachable, marking the response so clients and the harness can
// see the fallback. On a traced request, the failed routing attempt
// closes with a winnerless forward span and the local fallback serve
// records the terminal degraded span.
func (n *Node) degrade(w http.ResponseWriter, r *http.Request, owner, id string) {
	n.metrics.degraded.Inc()
	w.Header().Set(DegradedHeader, owner)
	if id != "" {
		n.cfg.Tracer.ReqSpan(obs.ReqSpan{
			ID: id, Node: n.cfg.Self, Path: obs.PathForward, Peer: owner,
		})
		n.serveTraced(w, r, id, obs.PathDegraded, owner)
		return
	}
	n.local.Handler().ServeHTTP(w, r)
}

// retryableStatus reports whether a peer status reflects transient
// load or lifecycle (retry elsewhere) rather than a deterministic
// verdict about the request (authoritative anywhere).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// tryPeer runs up to attempts round trips against one peer with
// deterministic exponential backoff between them (base << attempt).
func (n *Node) tryPeer(ctx context.Context, peer, uri string, attempts int, hedged bool, id string) peerResult {
	base := n.cfg.Membership.URL(peer)
	var last peerResult
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			n.metrics.retries.Inc()
			if id != "" {
				n.cfg.Tracer.ReqSpan(obs.ReqSpan{
					ID: id, Node: n.cfg.Self, Path: obs.PathRetry, Peer: peer,
				})
			}
			backoff := n.cfg.PeerBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return peerResult{peer: peer, hedged: hedged, err: ctx.Err()}
			}
		}
		last = n.roundTrip(ctx, base, peer, uri, hedged, id)
		if last.err == nil {
			return last
		}
	}
	return last
}

// roundTrip performs one forwarded request. Retryable statuses come
// back as errors; every other status is the peer's authoritative,
// deterministic answer (a 400 or 500 would be byte-identical locally).
func (n *Node) roundTrip(ctx context.Context, base, peer, uri string, hedged bool, id string) peerResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+uri, nil)
	if err != nil {
		return peerResult{peer: peer, hedged: hedged, err: err}
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	if id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return peerResult{peer: peer, hedged: hedged, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return peerResult{peer: peer, hedged: hedged, err: err}
	}
	if retryableStatus(resp.StatusCode) {
		return peerResult{peer: peer, hedged: hedged, err: fmt.Errorf("cluster: peer %s answered %d", peer, resp.StatusCode)}
	}
	return peerResult{status: resp.StatusCode, header: resp.Header, body: body, peer: peer, hedged: hedged}
}

// writePeerResponse relays a peer's answer, preserving the serving
// headers and adding the routing trail. On a traced request it also
// records the terminal forward span: the routed owner, the peer whose
// answer actually came back (winner), and whether the hedge won.
func (n *Node) writePeerResponse(w http.ResponseWriter, res peerResult, owner, id string) {
	h := w.Header()
	if ct := res.header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if class := res.header.Get("X-Capserver-Cache"); class != "" {
		h.Set("X-Capserver-Cache", class)
	}
	h.Set(PeerHeader, res.peer)
	if res.hedged {
		h.Set(HedgeHeader, "1")
	}
	if id != "" {
		h.Set(obs.TraceHeader, id)
		var hedge int64
		if res.hedged {
			hedge = 1
		}
		n.cfg.Tracer.ReqSpan(obs.ReqSpan{
			ID:     id,
			Node:   n.cfg.Self,
			Path:   obs.PathForward,
			Peer:   owner,
			Winner: res.peer,
			Hedge:  hedge,
			Status: int64(res.status),
			Cache:  res.header.Get("X-Capserver-Cache"),
		})
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}
