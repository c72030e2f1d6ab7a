package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Request-scoped tracing (DESIGN.md §12). A request span ("rspan") is
// one hop's record of a cluster request: which node touched it, on
// which routing path, with what outcome. Unlike channel-use traces,
// request spans deliberately carry wall-clock durations (queue wait,
// compute, total serve) — the serving layer's contract is weaker than
// the kernel layer's: span *structure* (IDs, nodes, paths, counts) is
// deterministic under a seeded harness while the timing fields are
// measurements. Every consumer that asserts reproducibility (the
// cluster fault harness, capstat reconciliation) asserts on structure
// and counts only, never on the durations.

// TraceHeader carries a request's trace ID across cluster hops and
// back to the client. It lives here, not in internal/cluster, because
// both the cluster router (which propagates it) and capserver (which
// keys its per-request timing exposition off its presence) need it
// without importing each other.
const TraceHeader = "X-Capserver-Trace"

// Request-span path codes. One request yields at most one owned, one
// store-local OR one forward span at its origin; forward requests add
// hedge/retry spans at the origin, remote spans at each peer that
// served the pre-routed hop, and a degraded span when no peer
// answered.
const (
	// PathOwned: the origin node owned the key and served locally.
	PathOwned = "owned"
	// PathStoreLocal: the origin did not own the key but found it in
	// the shared result store and served those bytes itself.
	PathStoreLocal = "store-local"
	// PathRemote: this node served a pre-routed request for a peer.
	PathRemote = "remote"
	// PathForward: the origin routed the key toward its owner; the
	// span records the target and, when a peer answered, the winner.
	PathForward = "forward"
	// PathHedge: the origin fired a hedged second request.
	PathHedge = "hedge"
	// PathRetry: the origin re-attempted a peer after a retryable
	// failure.
	PathRetry = "retry"
	// PathDegraded: the origin computed a non-owned key locally
	// because no peer path succeeded.
	PathDegraded = "degraded"
)

// ReqSpan is one hop of a request's cross-node trace.
type ReqSpan struct {
	// ID is the request's deterministic trace ID (see DESIGN.md §12
	// for the derivation rule).
	ID string `json:"id"`
	// Node is the member that recorded the span.
	Node string `json:"node"`
	// Path is one of the Path* codes above.
	Path string `json:"path"`
	// Peer is the hop's counterpart: the key's owner on a forward span,
	// the attempted peer on hedge/retry spans, the unreachable owner on
	// a degraded span, the forwarding origin on a remote span.
	Peer string `json:"peer,omitempty"`
	// Winner, on a forward span, names the peer whose answer was
	// relayed; empty means no peer answered and a degraded span
	// terminates the request instead.
	Winner string `json:"winner,omitempty"`
	// Hedge is 1 on a forward span won by the hedged second request.
	Hedge int64 `json:"hedge,omitempty"`
	// Status is the HTTP status of the hop's response (serving and
	// forward spans).
	Status int64 `json:"status,omitempty"`
	// Cache is the X-Capserver-Cache class of a locally-served hop.
	Cache string `json:"cache,omitempty"`
	// QueueUS and ComputeUS split a locally-served hop's time into
	// compute-queue wait and kernel compute, in microseconds; ServeUS
	// is the hop's total local serve time. Wall-clock measurements —
	// see the package comment at the top of this file.
	QueueUS   int64 `json:"queue_us,omitempty"`
	ComputeUS int64 `json:"compute_us,omitempty"`
	ServeUS   int64 `json:"serve_us,omitempty"`
}

// ReqSpan appends one request span to the trace. Field order is fixed
// so span structure stays byte-stable for identical inputs.
func (t *Tracer) ReqSpan(sp ReqSpan) {
	if t == nil {
		return
	}
	fields := make([]Field, 0, 11)
	fields = append(fields, S("id", sp.ID), S("node", sp.Node), S("path", sp.Path))
	if sp.Peer != "" {
		fields = append(fields, S("peer", sp.Peer))
	}
	if sp.Winner != "" {
		fields = append(fields, S("winner", sp.Winner))
	}
	if sp.Hedge != 0 {
		fields = append(fields, I("hedge", sp.Hedge))
	}
	if sp.Status != 0 {
		fields = append(fields, I("status", sp.Status))
	}
	if sp.Cache != "" {
		fields = append(fields, S("cache", sp.Cache))
	}
	if sp.QueueUS != 0 {
		fields = append(fields, I("queue_us", sp.QueueUS))
	}
	if sp.ComputeUS != 0 {
		fields = append(fields, I("compute_us", sp.ComputeUS))
	}
	if sp.ServeUS != 0 {
		fields = append(fields, I("serve_us", sp.ServeUS))
	}
	t.Event("rspan", fields...)
}

// reqSpanPrefix is the byte prefix every rspan line starts with: the
// tracer emits keys in fixed order, so non-rspan events (channel uses,
// protocol events, kernel spans) are filtered without JSON decoding.
var reqSpanPrefix = []byte(`{"t":"rspan"`)

// ReadReqSpans parses the request spans out of a JSONL trace stream,
// silently skipping every other event type, so a node's combined
// trace file (channel uses, supervisor events, request spans) feeds
// the analyzer directly.
func ReadReqSpans(r io.Reader) ([]ReqSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var spans []ReqSpan
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || !bytes.HasPrefix(raw, reqSpanPrefix) {
			continue
		}
		var sp ReqSpan
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("obs: rspan line %d: %w", line, err)
		}
		if sp.ID == "" || sp.Node == "" || sp.Path == "" {
			return nil, fmt.Errorf("obs: rspan line %d: missing id, node or path", line)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return spans, nil
}

// ReadReqSpanFiles reads and concatenates the request spans of several
// per-node trace files (the capstat ingestion path).
func ReadReqSpanFiles(paths ...string) ([]ReqSpan, error) {
	var all []ReqSpan
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		spans, err := ReadReqSpans(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, spans...)
	}
	return all, nil
}
