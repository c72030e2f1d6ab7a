package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/rng"
)

// Testbed is an in-process cluster on loopback, every member built by
// StartProc: the fault harnesses' kill/restart/dispatch plumbing.
type Testbed struct {
	// Names are the member names in sorted order.
	Names []string
	// Client is the harness side's HTTP client.
	Client *http.Client

	mem    Membership
	member func(name string, incarnation int) ProcConfig
	procs  map[string][]*Proc
	down   map[string]bool // killed or closed
}

// StartTestbed boots one member per name. member returns each
// incarnation's wiring (incarnation 0 at boot, one more per Restart);
// the testbed fills in Self and the Membership.
func StartTestbed(names []string, member func(name string, incarnation int) ProcConfig) (*Testbed, error) {
	tb := &Testbed{
		Names:  append([]string(nil), names...),
		Client: &http.Client{Timeout: 60 * time.Second},
		member: member,
		procs:  make(map[string][]*Proc, len(names)),
		down:   make(map[string]bool, len(names)),
	}
	sort.Strings(tb.Names)
	// Bind every listener first: the membership needs real addresses
	// before any member can route.
	var listeners []net.Listener
	closeFrom := func(i int, err error) (*Testbed, error) {
		for _, l := range listeners[i:] {
			l.Close()
		}
		_ = tb.Close()
		return nil, err
	}
	for _, name := range tb.Names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return closeFrom(0, err)
		}
		listeners = append(listeners, l)
		tb.mem.Members = append(tb.mem.Members, Member{Name: name, URL: "http://" + l.Addr().String()})
	}
	for i, name := range tb.Names {
		if err := tb.start(name, listeners[i]); err != nil {
			return closeFrom(i+1, err)
		}
	}
	return tb, nil
}

func (tb *Testbed) start(name string, l net.Listener) error {
	cfg := tb.member(name, len(tb.procs[name]))
	cfg.Cluster.Self, cfg.Cluster.Membership = name, tb.mem
	p, err := StartProc(l, cfg)
	if err != nil {
		return err
	}
	tb.procs[name] = append(tb.procs[name], p)
	tb.down[name] = false
	return nil
}

// URL is a member's base URL; it survives restarts.
func (tb *Testbed) URL(name string) string { return tb.mem.URL(name) }

// Proc is a member's current incarnation.
func (tb *Testbed) Proc(name string) *Proc {
	ps := tb.procs[name]
	return ps[len(ps)-1]
}

// Incarnations lists every incarnation a member has had, current last.
func (tb *Testbed) Incarnations(name string) []*Proc { return tb.procs[name] }

// Kill crashes a member: its listener and every open connection close
// at once, with no drain.
func (tb *Testbed) Kill(name string) {
	_ = tb.Proc(name).hs.Close()
	tb.down[name] = true
}

// Restart starts a new incarnation of a killed member on its old
// address, so the membership every peer holds still reaches it.
func (tb *Testbed) Restart(name string) error {
	addr := tb.Proc(name).Addr
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: restart %s on %s: %v", name, addr, err)
	}
	return tb.start(name, l)
}

// Send is client-side dispatch: dispatch picks the member to try
// first, and a transport error fails over to the next member in
// sorted order (the client does not know which member is dead; it
// discovers it). failovers counts the refused attempts.
func (tb *Testbed) Send(dispatch *rng.Source, method, path string, body []byte) (resp *http.Response, failovers int, err error) {
	pick := dispatch.Intn(len(tb.Names))
	for attempt := 0; attempt < len(tb.Names); attempt++ {
		// An empty body goes out as http.NoBody, exactly like a nil one.
		var req *http.Request
		if req, err = http.NewRequest(method, tb.URL(tb.Names[(pick+attempt)%len(tb.Names)])+path, bytes.NewReader(body)); err != nil {
			return nil, failovers, err
		}
		if resp, err = tb.Client.Do(req); err == nil {
			return resp, failovers, nil
		}
		failovers++
	}
	return nil, failovers, err
}

// Close shuts down every incarnation, killed ones included, each in
// capserverd's drain order. The client side's idle connections close
// first: the testbed client and every router forward over
// http.DefaultTransport, and http.Server.Shutdown waits five seconds
// on a connection that was dialed but never used.
func (tb *Testbed) Close() error {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, name := range tb.Names {
		for _, p := range tb.procs[name] {
			errs = append(errs, p.Shutdown(ctx))
		}
		tb.down[name] = true
	}
	return errors.Join(errs...)
}

// fault is a kill/restart schedule over a run's steps (requests,
// rounds or ticks): node is killed just before step kill and restarted
// just before step restart.
type fault struct {
	node          string
	kill, restart int
}

// downAt reports whether the node is down during step.
func (f fault) downAt(step int) bool { return step >= f.kill && step < f.restart }

// advance applies the schedule before step: it kills or restarts the
// node when step is due and logs that on out, naming the step with unit.
func (f fault) advance(tb *Testbed, step int, unit string, out io.Writer) error {
	switch step {
	case f.kill:
		tb.Kill(f.node)
		fmt.Fprintf(out, "%s %d: killed %s (%s)\n", unit, step, f.node, tb.Proc(f.node).Addr)
	case f.restart:
		if err := tb.Restart(f.node); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s %d: restarted %s (%s)\n", unit, step, f.node, tb.Proc(f.node).Addr)
	}
	return nil
}
