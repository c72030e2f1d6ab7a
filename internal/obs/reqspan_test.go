package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestReqSpanRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	full := ReqSpan{
		ID: "n1-1.1-deadbeef", Node: "n1", Path: PathForward,
		Peer: "n2", Winner: "n3", Hedge: 1, Status: 200, Cache: "hit",
		QueueUS: 10, ComputeUS: 20, ServeUS: 35,
	}
	sparse := ReqSpan{ID: "n1-1.2-cafecafe", Node: "n1", Path: PathOwned}
	tr.ReqSpan(full)
	tr.ReqSpan(sparse)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadReqSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[0] != full {
		t.Fatalf("full span roundtrip:\n got %+v\nwant %+v", spans[0], full)
	}
	if spans[1] != sparse {
		t.Fatalf("sparse span roundtrip:\n got %+v\nwant %+v", spans[1], sparse)
	}
	// Zero-valued fields must be omitted from the wire line, and every
	// line must carry the fixed filterable prefix.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if strings.Contains(lines[1], "peer") || strings.Contains(lines[1], "serve_us") {
		t.Fatalf("sparse span leaked zero fields: %s", lines[1])
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"t":"rspan"`) {
			t.Fatalf("rspan line lacks the filter prefix: %s", line)
		}
	}
}

func TestReqSpanNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.ReqSpan(ReqSpan{ID: "x", Node: "n", Path: PathOwned}) // must not panic
}

func TestReadReqSpansSkipsOtherEvents(t *testing.T) {
	input := strings.Join([]string{
		`{"t":"use","chan":"c1","sym":1}`,
		`{"t":"rspan","id":"r1","node":"n1","path":"owned"}`,
		``,
		`{"t":"kernel_span","name":"bounds"}`,
		`{"t":"rspan","id":"r2","node":"n2","path":"remote","peer":"n1"}`,
	}, "\n")
	spans, err := ReadReqSpans(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].ID != "r1" || spans[1].Peer != "n1" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestReadReqSpansRejectsMalformed(t *testing.T) {
	if _, err := ReadReqSpans(strings.NewReader(`{"t":"rspan","id":"r1"`)); err == nil {
		t.Fatal("truncated rspan line accepted")
	}
	if _, err := ReadReqSpans(strings.NewReader(`{"t":"rspan","id":"r1","node":"n1"}`)); err == nil {
		t.Fatal("rspan without a path accepted")
	}
}

// FuzzReadReqSpans holds capstat's input parser: ReadReqSpans never
// panics on raw bytes, and every span Tracer.ReqSpan writes reads back
// equal, except that each byte of invalid UTF-8 in a string field
// reads back as U+FFFD. The second seed is a trace ID a client can
// send on a pre-routed hop.
func FuzzReadReqSpans(f *testing.F) {
	f.Add([]byte(`{"t":"rspan","id":"r1","node":"n1","path":"owned"}`+"\n"),
		"n1-1.1-deadbeef", "n1", PathForward, "n2", "n3", "hit", int64(1), int64(200), int64(10), int64(20), int64(35))
	f.Add([]byte(`{"t":"rspan","id":"a\x80b","node":"n1","path":"remote","peer":"evil"}`+"\n"),
		"a\x80b", "n1", PathRemote, "evil", "", "", int64(0), int64(200), int64(0), int64(0), int64(7))
	f.Fuzz(func(t *testing.T, raw []byte, id, node, path, peer, winner, cache string,
		hedge, status, queueUS, computeUS, serveUS int64) {
		_, _ = ReadReqSpans(bytes.NewReader(raw))

		sp := ReqSpan{ID: id, Node: node, Path: path, Peer: peer, Winner: winner, Hedge: hedge,
			Status: status, Cache: cache, QueueUS: queueUS, ComputeUS: computeUS, ServeUS: serveUS}
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.ReqSpan(sp)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		line := append([]byte(nil), buf.Bytes()...)
		if len(line) > 1<<20 {
			return // longer than the line ReadReqSpans accepts
		}
		spans, err := ReadReqSpans(&buf)
		if id == "" || node == "" || path == "" {
			if err == nil {
				t.Fatalf("span without id, node or path read back: %s", line)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v\n%s", err, line)
		}
		valid := func(s string) string { return string([]rune(s)) } // one U+FFFD per invalid byte
		want := sp
		want.ID, want.Node, want.Path = valid(id), valid(node), valid(path)
		want.Peer, want.Winner, want.Cache = valid(peer), valid(winner), valid(cache)
		if len(spans) != 1 || spans[0] != want {
			t.Fatalf("read back %+v, want %+v\n%s", spans, want, line)
		}
	})
}

func TestReadReqSpanFiles(t *testing.T) {
	dir := t.TempDir()
	for name, id := range map[string]string{"n1.jsonl": "r1", "n2.jsonl": "r2"} {
		line := `{"t":"rspan","id":"` + id + `","node":"` + strings.TrimSuffix(name, ".jsonl") + `","path":"owned"}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spans, err := ReadReqSpanFiles(filepath.Join(dir, "n1.jsonl"), filepath.Join(dir, "n2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].ID != "r1" || spans[1].ID != "r2" {
		t.Fatalf("spans = %+v", spans)
	}
	if _, err := ReadReqSpanFiles(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestLatencyVecQuantileEdges(t *testing.T) {
	r := NewRegistry()
	lv := r.LatencyVec("t_latency_ms", "endpoint")

	if got := lv.Quantile("absent", 0.5); got != 0 {
		t.Fatalf("absent series quantile = %v, want 0 (and no materialized cell)", got)
	}
	lv.Observe("bounds", 1*time.Millisecond)
	lv.Observe("bounds", 100*time.Millisecond)
	p50 := lv.Quantile("bounds", 0.5)
	p99 := lv.Quantile("bounds", 0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
	}
	// q <= 0 clamps to the first occupied bucket, q >= 1 to the last:
	// both finite, ordered, and stable against wilder inputs.
	lo, hi := lv.Quantile("bounds", -1), lv.Quantile("bounds", 2)
	if lo <= 0 || hi < lo {
		t.Fatalf("q<=0 gives %v, q>=1 gives %v", lo, hi)
	}
	if hi != lv.Quantile("bounds", 1) {
		t.Fatalf("q=2 (%v) != q=1 (%v) after clamping", hi, lv.Quantile("bounds", 1))
	}
	if lo != lv.Quantile("bounds", 0.0001) {
		t.Fatalf("q<=0 (%v) not clamped to the first observation's bucket (%v)",
			lo, lv.Quantile("bounds", 0.0001))
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("t_info", "version")
	gv.With("go1.x").Set(1)
	if got := gv.With("go1.x").Value(); got != 1 {
		t.Fatalf("gauge value %d", got)
	}
	var buf bytes.Buffer
	r.WriteProm(&buf)
	if !strings.Contains(buf.String(), `t_info{version="go1.x"} 1`) {
		t.Fatalf("exposition missing labeled gauge:\n%s", buf.String())
	}
}

func TestRegisterRuntimeMetricsIdempotent(t *testing.T) {
	r := NewRegistry()
	start := time.Now()
	RegisterRuntimeMetrics(r, start)
	RegisterRuntimeMetrics(r, start) // re-registration must not panic

	var buf bytes.Buffer
	r.WriteProm(&buf)
	out := buf.String()
	for _, name := range []string{
		"process_goroutines", "process_heap_alloc_bytes",
		"process_gc_cycles_total", "process_uptime_seconds",
	} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "process_") && strings.Contains(line, "-") {
			t.Errorf("negative runtime sample: %s", line)
		}
	}
}
