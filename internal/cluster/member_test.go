package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/capserver"
)

// This file tests Proc's drain contract end to end, through the
// lifecycle cmd/capserverd ships: StartProc serves the member, and
// Proc.Shutdown flips readiness, closes the listener, waits for
// in-flight requests and then drains the worker pool.

// blockingStore is a capserver.ResultStore whose Put parks until
// unblock: the worker that writes a computed body through stays
// occupied and its request stays in flight, without reaching into
// capserver's internals. entered is closed by the first Put.
type blockingStore struct {
	entered, release chan struct{}
	enter, free      sync.Once
}

func newBlockingStore() *blockingStore {
	return &blockingStore{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *blockingStore) Get(string) ([]byte, bool) { return nil, false }

func (s *blockingStore) Put(string, []byte) {
	s.enter.Do(func() { close(s.entered) })
	<-s.release
}

func (s *blockingStore) unblock() { s.free.Do(func() { close(s.release) }) }

// awaitEntered waits until a worker is parked in Put.
func (s *blockingStore) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-s.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no computation reached the result store")
	}
}

// startBlockedProc starts a standalone member whose result store is
// st (ProcConfig passes Server.Store through when StoreDir is empty).
// Cleanup releases the store and shuts the member down, so a failed
// test leaves nothing running.
func startBlockedProc(t *testing.T, st *blockingStore, cfg capserver.Config) *Proc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	p, err := StartProc(l, ProcConfig{Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.unblock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = p.Shutdown(ctx)
	})
	return p
}

// waitRefused probes base until a fresh connection is refused, i.e.
// the member's listener has closed. The probe is /v1/healthz, which
// never enters the worker pool, so a probe accepted just before the
// listener closes answers at once instead of queuing behind a parked
// worker. Only a refused dial ends the loop: a reset or timed-out probe
// proves nothing and is retried.
func waitRefused(t *testing.T, base string) {
	t.Helper()
	probe := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting new connections during drain")
		}
		resp, err := probe.Get(base + "/v1/healthz")
		if errors.Is(err, syscall.ECONNREFUSED) {
			return
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// waitMetric polls base's /metrics until it carries the exposition
// line want.
func waitMetric(t *testing.T, base, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %q", want)
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if sc.Text() == want {
				found = true
			}
		}
		resp.Body.Close()
		if found {
			return
		}
	}
}

// fetched is a response's status and full body, or the error that
// ended the request.
type fetched struct {
	status int
	body   []byte
	err    error
}

// getAsync issues GET url and delivers the status and full body.
func getAsync(url string) <-chan fetched {
	out := make(chan fetched, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			out <- fetched{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		out <- fetched{status: resp.StatusCode, body: body, err: err}
	}()
	return out
}

// shutdownAsync runs p.Shutdown in the background.
func shutdownAsync(p *Proc) <-chan error {
	out := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		out <- p.Shutdown(ctx)
	}()
	return out
}

// TestGracefulShutdownDrains parks a request in flight and shuts the
// member down: the accepted request must complete with its full body,
// and the listener must be closed.
func TestGracefulShutdownDrains(t *testing.T) {
	st := newBlockingStore()
	p := startBlockedProc(t, st, capserver.Config{})
	inflight := getAsync(p.URL() + "/v1/bounds?n=6&pd=0.15&exact_n=10")
	st.awaitEntered(t)

	shutDone := shutdownAsync(p)
	waitRefused(t, p.URL())
	st.unblock()

	// Proc.Shutdown reports Serve's error unless it is
	// http.ErrServerClosed, so nil also means serving stopped cleanly.
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK || !json.Valid(res.body) {
		t.Fatalf("in-flight request: status %d, body %s", res.status, res.body)
	}
	select {
	case <-p.Done():
	default:
		t.Error("Done still open after Shutdown")
	}
	if _, err := net.DialTimeout("tcp", p.Addr, time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestShutdownDrainsInflightBatch is the HTTP-level drain contract for
// POST /v1/bounds:batch: a batch whose points are already admitted
// when Shutdown begins completes with every point computed, while new
// connections are refused for the whole drain window.
func TestShutdownDrainsInflightBatch(t *testing.T) {
	st := newBlockingStore()
	p := startBlockedProc(t, st, capserver.Config{Workers: 1, QueueDepth: 16})
	base := p.URL()

	// Occupy the single worker: this request's computation parks in
	// the store's Put, so the batch's points queue behind it, keeping
	// the batch handler in flight for the whole test.
	blocker := getAsync(base + "/v1/bounds?n=4&pd=0.2")
	st.awaitEntered(t)

	batchDone := make(chan error, 1)
	var batchResp capserver.BatchResponse
	go func() {
		body := `{"points":[{"n":4,"pd":0.1},{"n":4,"pd":0.3}]}`
		resp, err := http.Post(base+"/v1/bounds:batch", "application/json", strings.NewReader(body))
		if err != nil {
			batchDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			batchDone <- fmt.Errorf("batch status %d: %s", resp.StatusCode, b)
			return
		}
		batchDone <- json.NewDecoder(resp.Body).Decode(&batchResp)
	}()

	// Wait until both points are queued behind the blocker.
	waitMetric(t, base, "capserver_queue_depth 2")

	// New work must be rejected while the batch drains: the listener
	// closes, so fresh connections are refused.
	shutDone := shutdownAsync(p)
	waitRefused(t, base)
	select {
	case err := <-batchDone:
		t.Fatalf("batch finished before the worker was released: %v", err)
	default:
	}

	st.unblock() // let the admitted points compute
	if err := <-batchDone; err != nil {
		t.Fatalf("in-flight batch: %v", err)
	}
	if batchResp.Succeeded != 2 || batchResp.Failed != 0 {
		t.Fatalf("drained batch: %d succeeded / %d failed, want 2/0 (%+v)", batchResp.Succeeded, batchResp.Failed, batchResp)
	}
	for i, pr := range batchResp.Results {
		if !pr.OK || len(pr.Result) == 0 {
			t.Fatalf("drained batch point %d not served: %+v", i, pr)
		}
	}
	if res := <-blocker; res.err != nil || res.status != http.StatusOK {
		t.Fatalf("blocking request: status %d, err %v", res.status, res.err)
	}
	// Proc.Shutdown reports Serve's error unless it is
	// http.ErrServerClosed, so nil also means serving stopped cleanly.
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
