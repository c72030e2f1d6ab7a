package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestServeAndGracefulShutdown boots the daemon on an ephemeral port,
// verifies it serves, then cancels the run context and asserts a clean
// drain — the end-to-end shape of a SIGTERM.
func TestServeAndGracefulShutdown(t *testing.T) {
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()

	logf, err := os.CreateTemp(t.TempDir(), "capserverd-log")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s"}, logf)
	}()

	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	resp, err := http.Get("http://" + addr.String() + "/v1/bounds?n=4&pd=0.2")
	if err != nil {
		t.Fatalf("GET bounds: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("bounds: status %d, err %v, body %s", resp.StatusCode, err, body)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestBadFlags: each case fails before the daemon serves. A negative
// size is refused, not mapped to a default (or, for -max-sessions, to a
// cap that refuses every session). The run context is already
// canceled, so a daemon that wrongly starts drains at once and returns
// nil.
func TestBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-addr"},
		{"-addr", "256.0.0.1:99999"},
		{"-workers", "-1"},
		{"-queue", "-5"},
		{"-cache", "-1"},
		{"-max-symbols", "-1"},
		{"-max-sessions", "-5"},
		{"-timeout", "-1s"},
	} {
		if err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), os.Stderr); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestClusterFlags boots a single-member cluster (every key self-owned)
// with a result store and verifies the daemon serves through the node
// router, persists results, and validates its flag pairing.
func TestClusterFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-cluster", "n1=http://x"}, os.Stderr); err == nil {
		t.Error("-cluster without -self accepted")
	}
	if err := run(context.Background(), []string{"-self", "n1"}, os.Stderr); err == nil {
		t.Error("-self without -cluster accepted")
	}
	if err := run(context.Background(), []string{"-cluster", "n1=http://x", "-self", "ghost"}, os.Stderr); err == nil {
		t.Error("-self outside the membership accepted")
	}

	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()
	logf, err := os.CreateTemp(t.TempDir(), "capserverd-log")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()

	store := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s",
			"-cluster", "n1=http://127.0.0.1:1", "-self", "n1", "-store", store,
		}, logf)
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	base := "http://" + addr.String()
	resp, err := http.Get(base + "/v1/bounds?n=4&pd=0.2")
	if err != nil {
		t.Fatalf("GET bounds: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("bounds: status %d, err %v, body %s", resp.StatusCode, err, body)
	}
	// The compute landed in the store: a directory entry now exists.
	entries, err := os.ReadDir(store)
	if err != nil || len(entries) == 0 {
		t.Fatalf("store dir after compute: entries=%d err=%v", len(entries), err)
	}
	// readyz serves through the cluster router.
	resp, err = http.Get(base + "/v1/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v status %v", err, resp)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestTraceWriteErrorFailsRun: a trace sink that rejects every write
// loses the buffered spans, so the drain must fail the run instead of
// exiting cleanly.
func TestTraceWriteErrorFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()
	logf, err := os.CreateTemp(t.TempDir(), "capserverd-log")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s",
			"-cluster", "n1=http://127.0.0.1:1", "-self", "n1", "-trace", "/dev/full",
		}, logf)
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	resp, err := http.Get("http://" + addr.String() + "/v1/bounds?n=4&pd=0.2")
	if err != nil {
		t.Fatalf("GET bounds: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounds: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "trace sink") {
			t.Fatalf("run returned %v after losing its trace, want the sink error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
