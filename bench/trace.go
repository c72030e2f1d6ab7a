package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capserver"
)

// The benchmark's own tracing: spans recorded around calls into each
// public layer boundary (HTTP handler, cluster router, forwarding
// transport, result store) from wrappers this package installs. Nothing
// under internal/ is instrumented. Spans stay in a preallocated buffer
// and are written as JSONL when the run ends.

// spanName identifies a layer boundary.
type spanName uint8

const (
	spanClient    spanName = iota + 1 // client round trip (the root)
	spanNode                          // cluster router handler
	spanCapserver                     // capserver handler
	spanHop                           // forwarded round trip, node to peer
	spanStoreGet                      // ResultStore.Get
	spanStorePut                      // ResultStore.Put
)

var spanNames = [...]string{
	spanClient:    "client",
	spanNode:      "cluster.node",
	spanCapserver: "capserver.handler",
	spanHop:       "cluster.hop",
	spanStoreGet:  "casstore.get",
	spanStorePut:  "casstore.put",
}

// span is one trace record. Start and End are nanoseconds since the
// tracer was created. Req ties the spans of one client request together
// (0 for store spans, which see no request); Parent is the ID of the
// enclosing span. Arg and Aux carry per-kind detail: the request kind
// for client spans, the hashed key for store spans, the point class for
// puts, and a hit flag for gets.
type span struct {
	ID, Parent, Req int64
	Arg             int64
	Start, End      int64
	Aux             int32
	Name            spanName
}

// Request IDs and parent span IDs cross HTTP hops in these headers; the
// serving stack ignores headers it does not know.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// tracer collects spans while on. Its buffer is preallocated and
// pointer-free, so recording allocates nothing and the garbage
// collector never scans it. Clients trace one request in every; the
// store traces one key in every, so a miss's Get and Put pair up.
type tracer struct {
	on    atomic.Bool
	every int64
	t0    time.Time
	ids   atomic.Int64
	n     atomic.Int64
	spans []span
}

func newTracer(capacity int, every int64) *tracer {
	return &tracer{t0: time.Now(), every: every, spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record keeps s unless the buffer is full; dropped spans are counted.
func (t *tracer) record(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// recorded returns the kept spans. Call only once recording stopped.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// dropped returns how many spans did not fit the buffer.
func (t *tracer) dropped() int64 {
	if d := t.n.Load() - int64(len(t.spans)); d > 0 {
		return d
	}
	return 0
}

// writeJSONL writes the kept spans, one object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"req":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"arg":%d,"aux":%d}`+"\n",
			s.ID, spanNames[s.Name], s.Req, s.Parent, s.Start, s.End, s.Arg, s.Aux)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is the enclosing span a wrapper passes down the context.
type spanRef struct{ req, id int64 }

type spanKey struct{}

// parentOf finds the enclosing span of an incoming request: the
// context first (an in-process parent), else the propagation headers.
func parentOf(r *http.Request) spanRef {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		return ref
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	return spanRef{req, id}
}

// timedHandler records one span per request served by next.
type timedHandler struct {
	tr   *tracer
	name spanName
	next http.Handler
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent := parentOf(r)
	if parent.req == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.tr.newID()
	start := h.tr.now()
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{parent.req, id})))
	h.tr.record(span{ID: id, Parent: parent.id, Req: parent.req, Name: h.name, Start: start, End: h.tr.now()})
}

// timedTransport records one span per forwarded round trip, ending when
// the node closes the response body, and propagates the request ID to
// the peer.
type timedTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.next.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(spanRef)
	if parent.req == 0 {
		return t.next.RoundTrip(req)
	}
	sp := span{ID: t.tr.newID(), Parent: parent.id, Req: parent.req, Name: spanHop}
	out := req.Clone(req.Context())
	out.Header.Set(reqHeader, strconv.FormatInt(parent.req, 10))
	out.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	sp.Start = t.tr.now()
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		sp.End = t.tr.now()
		t.tr.record(sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		sp.End = t.tr.now()
		t.tr.record(sp)
	}}
	return resp, nil
}

// timedBody runs done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedStore records one span per ResultStore call.
type timedStore struct {
	tr   *tracer
	next capserver.ResultStore
}

// sampled reports whether the store traces this key, and its hash.
func (s timedStore) sampled(key string) (int64, bool) {
	if !s.tr.on.Load() {
		return 0, false
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	sum := h.Sum64()
	return int64(sum), sum%uint64(s.tr.every) == 0
}

func (s timedStore) Get(key string) ([]byte, bool) {
	hash, ok := s.sampled(key)
	if !ok {
		return s.next.Get(key)
	}
	start := s.tr.now()
	body, ok := s.next.Get(key)
	sp := span{ID: s.tr.newID(), Name: spanStoreGet, Arg: hash, Start: start, End: s.tr.now()}
	if ok {
		sp.Aux = 1
	}
	s.tr.record(sp)
	return body, ok
}

func (s timedStore) Put(key string, body []byte) {
	hash, ok := s.sampled(key)
	if !ok {
		s.next.Put(key, body)
		return
	}
	start := s.tr.now()
	s.next.Put(key, body)
	s.tr.record(span{ID: s.tr.newID(), Name: spanStorePut, Arg: hash, Aux: pointClass(body), Start: start, End: s.tr.now()})
}
