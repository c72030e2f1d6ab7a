package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/capserver"
	"repro/internal/cluster"
	"repro/internal/cluster/casstore"
	"repro/internal/obs"
)

// Daemon defaults, copied from cmd/capserverd's flag defaults so the
// benchmark serves exactly what an operator starting the daemon with no
// flags would run.
const (
	daemonQueue      = 64
	daemonCache      = 1024
	daemonTimeout    = 30 * time.Second
	daemonMaxSymbols = 200000
	daemonHealthTick = 5 * time.Second
	daemonDrain      = 30 * time.Second
)

// stackConfig selects one serving topology.
type stackConfig struct {
	// members is 1 for a standalone capserver, more for a cluster ring.
	members int
	// cache is the per-member LRU size (0 = daemon default).
	cache int
	// storeDir, when set, opens one casstore there, shared by every
	// member, as `capserverd -store` does.
	storeDir string
	// healthTick is the alert-engine sampling interval; 0 runs no
	// background ticker (traced runs tick by hand and time it).
	healthTick time.Duration
	// tr, when non-nil, installs the timing wrappers around every
	// public layer boundary.
	tr *tracer
	// wrapStore, when non-nil, wraps the result store (tests use it to
	// corrupt reads).
	wrapStore func(capserver.ResultStore) capserver.ResultStore
}

// member is one serving process-in-miniature: a capserver, its cluster
// router when in a ring, and the http.Server on its loopback listener.
type member struct {
	name   string
	url    string
	srv    *capserver.Server
	node   *cluster.Node
	hs     *http.Server
	served chan error
}

// stack is a booted topology.
type stack struct {
	members []*member
	store   *casstore.Store
}

// bootStack constructs and starts a topology, wired the way
// cmd/capserverd wires one member: a shared obs registry per member,
// capserver.New, an optional casstore, and cluster.NewNode in front of
// the capserver in ring mode.
func bootStack(cfg stackConfig) (*stack, error) {
	st := &stack{}
	var store capserver.ResultStore
	if cfg.storeDir != "" {
		cs, err := casstore.Open(cfg.storeDir)
		if err != nil {
			return nil, err
		}
		st.store = cs
		store = cs
		if cfg.wrapStore != nil {
			store = cfg.wrapStore(store)
		}
		if cfg.tr != nil {
			store = timedStore{tr: cfg.tr, next: store}
		}
	}
	cache := cfg.cache
	if cache == 0 {
		cache = daemonCache
	}
	listeners := make([]net.Listener, cfg.members)
	var mem cluster.Membership
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, err
		}
		listeners[i] = l
		mem.Members = append(mem.Members, cluster.Member{Name: fmt.Sprintf("n%d", i+1), URL: "http://" + l.Addr().String()})
	}
	for i, l := range listeners {
		m := &member{name: mem.Members[i].Name, url: mem.Members[i].URL, served: make(chan error, 1)}
		reg := obs.NewRegistry()
		ccfg := capserver.Config{
			QueueDepth:     daemonQueue,
			CacheEntries:   cache,
			RequestTimeout: daemonTimeout,
			MaxSymbols:     daemonMaxSymbols,
			Metrics:        reg,
			HealthTick:     cfg.healthTick,
		}
		if store != nil {
			ccfg.Store = store
		}
		m.srv = capserver.New(ccfg)
		handler := m.srv.Handler()
		if cfg.tr != nil {
			handler = timedHandler{tr: cfg.tr, name: spanCapserver, next: handler}
		}
		if cfg.members > 1 {
			ncfg := cluster.Config{Self: m.name, Membership: mem, Metrics: cluster.NewMetrics(reg)}
			if cfg.tr != nil {
				ncfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: timedTransport{tr: cfg.tr, next: http.DefaultTransport}}
			}
			node, err := cluster.NewNode(localServer{Server: m.srv, h: handler}, ncfg)
			if err != nil {
				m.srv.Shutdown(context.Background())
				for _, open := range listeners[i:] {
					open.Close()
				}
				st.close()
				return nil, err
			}
			m.node = node
			handler = node.Handler()
			if cfg.tr != nil {
				handler = timedHandler{tr: cfg.tr, name: spanNode, next: handler}
			}
		}
		m.hs = &http.Server{Handler: handler}
		go func(l net.Listener) { m.served <- m.hs.Serve(l) }(l)
		st.members = append(st.members, m)
	}
	return st, nil
}

// boot starts a stack for the run, with the run's tracing, health tick
// and test hooks, and waits until every member answers /v1/readyz.
func (r *runner) boot(cfg stackConfig) error {
	cfg.tr, cfg.healthTick, cfg.wrapStore = r.tr, r.healthTick(), r.opt.hooks.wrapStore
	st, err := bootStack(cfg)
	if err != nil {
		return err
	}
	r.st = st
	for _, m := range st.members {
		if _, err := get(r.hc, m.url+"/v1/readyz"); err != nil {
			return err
		}
	}
	return nil
}

// localServer is the capserver handed to cluster.NewNode: Canonicalize
// comes from the server, Handler from the (possibly timed) wrapper, so
// the node's local serves are timed separately from its routing.
type localServer struct {
	*capserver.Server
	h http.Handler
}

func (l localServer) Handler() http.Handler { return l.h }

// close shuts every member down in capserverd's drain order: readiness
// first, then the listener's in-flight requests, then the worker pool.
// The forwarding transport's idle connections are closed first: a
// connection it dialed but never used counts as new, not idle, and
// http.Server.Shutdown waits five seconds before closing those.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), daemonDrain)
	defer cancel()
	for _, m := range st.members {
		m.srv.StartDrain()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	var errs []error
	for _, m := range st.members {
		errs = append(errs, m.hs.Shutdown(ctx), m.srv.Shutdown(ctx))
		if err := <-m.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// url returns member i's base URL.
func (st *stack) url(i int) string { return st.members[i].url }

// capCounters sums the capserver serving counters over every member.
type capCounters struct {
	hits, shared, storeHits, computes, rejected, abandoned int64
}

func (st *stack) capCounters() capCounters {
	var c capCounters
	for _, m := range st.members {
		mt := m.srv.Metrics()
		c.hits += mt.CacheHits()
		c.shared += mt.CacheShared()
		c.storeHits += mt.StoreHits()
		c.computes += mt.ComputeCalls("bounds") + mt.ComputeCalls("predict")
		c.rejected += mt.QueueRejected()
		c.abandoned += mt.Abandoned()
	}
	return c
}

func (c capCounters) sub(o capCounters) capCounters {
	return capCounters{c.hits - o.hits, c.shared - o.shared, c.storeHits - o.storeHits,
		c.computes - o.computes, c.rejected - o.rejected, c.abandoned - o.abandoned}
}

// clusterCounters sums the routing counters over every member.
type clusterCounters struct {
	owned, forwards, hedges, retries, degraded int64
}

func (st *stack) clusterCounters() clusterCounters {
	var c clusterCounters
	for _, m := range st.members {
		if m.node == nil {
			continue
		}
		mt := m.node.Metrics()
		c.owned += mt.OwnedLocal()
		c.forwards += mt.Forwards()
		c.hedges += mt.Hedges()
		c.retries += mt.Retries()
		c.degraded += mt.Degraded()
	}
	return c
}

func (c clusterCounters) sub(o clusterCounters) clusterCounters {
	return clusterCounters{c.owned - o.owned, c.forwards - o.forwards, c.hedges - o.hedges,
		c.retries - o.retries, c.degraded - o.degraded}
}

// storeStats returns the shared store's counters (zero without one).
func (st *stack) storeStats() casstore.Stats {
	if st.store == nil {
		return casstore.Stats{}
	}
	return st.store.Stats()
}
