package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nopLocal is the cheapest possible localServer: a stored no-op
// handler (fakeLocal builds a closure per Handler call, which would
// charge allocations to the router that belong to the stub), a
// constant canonical key and an empty store.
type nopLocal struct{ h http.Handler }

func (l *nopLocal) Handler() http.Handler { return l.h }

func (l *nopLocal) Canonicalize(*http.Request) (string, bool) { return "bounds?fixed", true }

func (l *nopLocal) Stored(string) ([]byte, bool) { return nil, false }

// nopResponseWriter discards the response without allocating.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestOwnedFastPathZeroAlloc pins the tracing-off serving contract:
// the cluster router adds zero heap allocations to an owned request.
// Tracing is opt-in observability; a node that has it off must route
// at the wrapped server's cost, and this test is what keeps the
// trace-header stripping and status-path checks on the fast path
// allocation-free as they evolve.
func TestOwnedFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	mem := Membership{Members: []Member{{Name: "n1", URL: "http://127.0.0.1:1"}}}
	node, err := NewNode(&nopLocal{h: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})},
		Config{Self: "n1", Membership: mem})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/bounds?n=4&pd=0.2", nil)
	w := &nopResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(1000, func() {
		node.serveHTTP(w, req)
	})
	if allocs != 0 {
		t.Fatalf("owned fast path allocates %.1f objects per request, want 0", allocs)
	}
	if node.Metrics().OwnedLocal() == 0 {
		t.Fatal("fast path never took the owned branch")
	}
}
