package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/capserver"
	"repro/internal/cluster/casstore"
	"repro/internal/obs"
)

// ProcConfig is one member's wiring, as cmd/capserverd's flags
// describe it. StartProc sets Server.Metrics and Cluster.Metrics to
// one fresh registry, and Server.Store to the store at StoreDir.
type ProcConfig struct {
	Server capserver.Config
	// StoreDir, when set, opens a casstore there as the result store.
	StoreDir string
	// Cluster configures the ring router; with no Membership the
	// member serves standalone.
	Cluster Config
}

// Proc is one running member: the serving core, its ring router in
// cluster mode (Node, else nil), its result store (Store, else nil),
// and the http.Server on the member's listener.
type Proc struct {
	Addr   string
	Server *capserver.Server
	Node   *Node
	Store  *casstore.Store

	hs       *http.Server
	done     chan struct{} // closed once Serve has returned serveErr
	serveErr error

	shutdown    sync.Once
	shutdownErr error
}

// StartProc builds a member the way cmd/capserverd does and serves it
// on l, which it owns from here on (it is closed on error too).
func StartProc(l net.Listener, cfg ProcConfig) (*Proc, error) {
	p := &Proc{Addr: l.Addr().String(), done: make(chan struct{})}
	if cfg.StoreDir != "" {
		st, err := casstore.Open(cfg.StoreDir)
		if err != nil {
			l.Close()
			return nil, err
		}
		p.Store, cfg.Server.Store = st, st
	}
	cfg.Server.Metrics = obs.NewRegistry()
	p.Server = capserver.New(cfg.Server)
	handler := p.Server.Handler()
	if len(cfg.Cluster.Membership.Members) > 0 {
		cfg.Cluster.Metrics = NewMetrics(cfg.Server.Metrics)
		node, err := NewNode(p.Server, cfg.Cluster)
		if err != nil {
			_ = p.Server.Shutdown(context.Background()) // nothing admitted: stops the idle pool at once
			l.Close()
			return nil, err
		}
		p.Node, handler = node, node.Handler()
	}
	p.hs = &http.Server{Handler: handler}
	go func() {
		p.serveErr = p.hs.Serve(l)
		close(p.done)
	}()
	return p, nil
}

// URL is the member's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Done is closed once the member stops serving.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Shutdown drains the member in capserverd's order: readiness flips
// first so balancers and peers stop sending, then in-flight requests
// complete, then the worker pool finishes every admitted computation.
// It returns Serve's error if serving had failed, and is idempotent.
func (p *Proc) Shutdown(ctx context.Context) error {
	p.shutdown.Do(func() {
		p.Server.StartDrain()
		err := p.hs.Shutdown(ctx)
		if err == nil {
			err = p.Server.Shutdown(ctx)
		}
		if err != nil {
			p.shutdownErr = fmt.Errorf("shutdown: %w", err)
			return
		}
		<-p.done
		if !errors.Is(p.serveErr, http.ErrServerClosed) {
			p.shutdownErr = p.serveErr
		}
	})
	return p.shutdownErr
}
