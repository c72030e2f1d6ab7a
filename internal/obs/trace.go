package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// defaultFlushAt is the buffered-byte threshold at which a tracer
// writes its pending lines to the sink.
const defaultFlushAt = 1 << 16

// Tracer records structured observability events as JSONL: one JSON
// object per line, keys in fixed emission order, no wall-clock or
// scheduling-dependent values — so a trace is a pure function of the
// traced run's seed and replays byte-identically.
//
// A nil *Tracer is the no-op fast path: every method nil-checks its
// receiver, so instrumented hot loops pay one predictable branch when
// tracing is disabled. Methods are safe for concurrent use, but
// interleaving streams from multiple goroutines into one tracer is
// not deterministic — give each deterministic stream its own tracer
// (see TraceSet) and concatenate.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	buf     []byte
	flushAt int
	events  int64
	err     error
}

// NewTracer returns a tracer writing JSONL to w with bounded
// buffering: lines accumulate in memory and flush to w whenever the
// pending buffer exceeds 64KiB (and at Flush/Close).
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, flushAt: defaultFlushAt}
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns the number of events emitted so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Err returns the first sink write error, if any. Tracing degrades to
// dropping events after a sink error rather than failing the run.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush writes pending lines to the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	return t.err
}

// Close flushes pending lines. It does not close the sink, which the
// caller owns.
func (t *Tracer) Close() error { return t.Flush() }

func (t *Tracer) flushLocked() {
	if len(t.buf) == 0 || t.err != nil {
		return
	}
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = fmt.Errorf("obs: trace sink: %w", err)
	}
	t.buf = t.buf[:0]
}

// commit finishes one line started in t.buf under t.mu.
func (t *Tracer) commit() {
	t.buf = append(t.buf, '}', '\n')
	t.events++
	if len(t.buf) >= t.flushAt {
		t.flushLocked()
	}
}

// Field is one key/value pair of a trace event.
type Field struct {
	Key string
	s   string
	i   int64
	f   float64
	// kind: 0 int, 1 string, 2 float
	kind uint8
}

// I returns an integer field.
func I(key string, v int64) Field { return Field{Key: key, i: v, kind: 0} }

// S returns a string field.
func S(key, v string) Field { return Field{Key: key, s: v, kind: 1} }

// F returns a float field, rendered with strconv 'g' shortest form
// (deterministic across platforms for the same value).
func F(key string, v float64) Field { return Field{Key: key, f: v, kind: 2} }

// appendString appends s as a JSON string. It escapes `"`, `\` and
// the runes below U+0020, writes each byte of invalid UTF-8 as U+FFFD
// (as encoding/json does), and writes every other rune as itself. A
// string a client sent, such as a trace ID, thus always yields a line
// JSON readers accept; on printable ASCII the bytes equal
// strconv.AppendQuote's.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	// Ranging over a string yields utf8.RuneError for each invalid byte.
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendField appends ,"key":value.
func appendField(b []byte, f Field) []byte {
	b = append(b, ',')
	b = appendString(b, f.Key)
	b = append(b, ':')
	switch f.kind {
	case 0:
		b = strconv.AppendInt(b, f.i, 10)
	case 1:
		b = appendString(b, f.s)
	default:
		b = strconv.AppendFloat(b, f.f, 'g', -1, 64)
	}
	return b
}

// Use records one channel use: its global index i (1-based within the
// stream), the Definition 1 event code k ("T", "S", "D", "I"),
// the queued symbol, the delivered symbol (omitted for deletions,
// which deliver nothing), and whether a fault-injection layer overrode
// the use.
func (t *Tracer) Use(i int64, k string, queued, delivered uint32, deleted, injected bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := append(t.buf, `{"t":"use","i":`...)
	b = strconv.AppendInt(b, i, 10)
	b = append(b, `,"k":`...)
	b = appendString(b, k)
	b = append(b, `,"q":`...)
	b = strconv.AppendUint(b, uint64(queued), 10)
	if !deleted {
		b = append(b, `,"d":`...)
		b = strconv.AppendUint(b, uint64(delivered), 10)
	}
	if injected {
		b = append(b, `,"inj":1`...)
	}
	t.buf = b
	t.commit()
	t.mu.Unlock()
}

// Event records a named protocol-layer event ({"t":"<name>",...}).
// Names used by this repository: chunk, attempt, backoff, resync,
// chunkfail, sup, cell, layer.
func (t *Tracer) Event(name string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := append(t.buf, `{"t":`...)
	b = appendString(b, name)
	for _, f := range fields {
		b = appendField(b, f)
	}
	t.buf = b
	t.commit()
	t.mu.Unlock()
}

// Span records a named kernel span ({"t":"span","sp":"<name>",...}):
// a deterministic summary of one kernel execution, e.g. Blahut–Arimoto
// iteration counts or sequential-decoding node counts. Durations are
// deliberately excluded — wall-clock belongs in the metrics registry,
// never in a deterministic trace.
func (t *Tracer) Span(name string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := append(t.buf, `{"t":"span","sp":`...)
	b = appendString(b, name)
	for _, f := range fields {
		b = appendField(b, f)
	}
	t.buf = b
	t.commit()
	t.mu.Unlock()
}
