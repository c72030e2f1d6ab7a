package session

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/channel"
)

// Event is one decoded channel-use event.
type Event struct {
	// Use is the 1-based use index; events within a session are
	// strictly increasing in Use.
	Use int64
	// Kind is the Definition 1 event kind.
	Kind channel.EventKind
	// Sent is the symbol the covert sender queued (meaningful for
	// T/S/D events; insertions deliver a symbol nobody sent).
	Sent uint32
	// Received is the delivered symbol (meaningful for T/S/I events;
	// deletions deliver nothing).
	Received uint32
	// Injected marks uses a fault layer overrode.
	Injected bool
}

// MaxSymbol is the largest wire symbol: a session's alphabet is N bits
// wide, and the bounds served for it hold only for that alphabet.
const MaxSymbol = 1<<N - 1

// MaxLineBytes bounds one NDJSON line; a use event is ~50 bytes, so
// 4 KiB is generous while keeping hostile input from ballooning the
// scanner buffer.
const MaxLineBytes = 4096

// ErrOutOfOrder reports a use index at or below one already applied.
var ErrOutOfOrder = errors.New("session: out-of-order use index")

// DecodeError locates the first rejected line of a batch.
type DecodeError struct {
	// Line is the 1-based NDJSON line number of the first bad line.
	Line int
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("session: event line %d: %v", e.Line, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// The wire schema for one event line is
//
//	{"u":<use index>,"k":"T|S|D|I","s":<sent>,"r":<received>,"inj":1}
//
// "s" is required for T/S/D and forbidden for I (an insertion delivers
// a symbol nobody sent); "r" is required for T/S/I and forbidden for D
// (a deletion delivers nothing) — the same convention the obs trace
// writer uses for its "d" field. "inj" is optional; any nonzero value
// marks the use injected.
//
// The accepted language is whatever the encoding/json line decoder in
// reference.go accepts; that decoder is the spec. Decoding runs in two
// tiers. The fused tier, decodeExact, takes only the exact layout
// EncodeEvents writes, the layout of every producer in this module; it
// parses and checks such a line in one pass, without reflection or
// allocation. Every other line, and every line the reference would
// reject, is decoded by the reference, which parses into a fields
// value and hands it to validate; so the reference produces every
// error message.

// fields is one event line as the reference parsed it: raw values with
// presence flags, before any semantic check.
type fields struct {
	u, s, r, inj                   int64
	k                              string
	hasU, hasK, hasS, hasR, hasInj bool
}

// decodeLine strictly decodes one NDJSON line into an Event: the fused
// tier when the line is in the exact layout and valid, the reference
// otherwise.
func decodeLine(line []byte) (Event, error) {
	if ev, ok := decodeExact(line); ok {
		return ev, nil
	}
	return decodeLineReference(line)
}

// decodeExact decodes line if it is in the exact layout EncodeEvents
// writes,
//
//	{"u":U,"k":"K"[,"s":S][,"r":R][,"inj":J]}
//
// with the keys in this order, no whitespace, each integer
// non-negative, without a leading zero and at most 18 digits long (so
// it fits an int64), and if it passes every check validate applies:
// use ≥ 1, "s" present unless K is I, "r" present unless K is D,
// symbols in [0, MaxSymbol], and r = s for T but not for S. ok is false
// for every other line, including lines the reference accepts (any
// other key order, whitespace, a 19-digit use) and every line validate
// would reject, so that the reference decodes it.
func decodeExact(line []byte) (ev Event, ok bool) {
	n := len(line)
	if n < 5 || string(line[:5]) != `{"u":` {
		return Event{}, false
	}
	var i int
	if ev.Use, i, ok = exactInt(line, 5); !ok || ev.Use < 1 ||
		n < i+8 || string(line[i:i+6]) != `,"k":"` || line[i+7] != '"' {
		return Event{}, false
	}
	if ev.Kind, ok = KindFromCode(string(line[i+6 : i+7])); !ok {
		return Event{}, false
	}
	i += 8
	var v int64
	if ev.Kind != channel.EventInsert {
		if n < i+5 || string(line[i:i+5]) != `,"s":` {
			return Event{}, false
		}
		if v, i, ok = exactInt(line, i+5); !ok || v > MaxSymbol {
			return Event{}, false
		}
		ev.Sent = uint32(v)
	}
	if ev.Kind != channel.EventDelete {
		if n < i+5 || string(line[i:i+5]) != `,"r":` {
			return Event{}, false
		}
		if v, i, ok = exactInt(line, i+5); !ok || v > MaxSymbol {
			return Event{}, false
		}
		ev.Received = uint32(v)
	}
	if n >= i+7 && string(line[i:i+7]) == `,"inj":` {
		if v, i, ok = exactInt(line, i+7); !ok {
			return Event{}, false
		}
		ev.Injected = v != 0
	}
	if i != n-1 || line[i] != '}' ||
		ev.Kind == channel.EventTransmit && ev.Received != ev.Sent ||
		ev.Kind == channel.EventSubstitute && ev.Received == ev.Sent {
		return Event{}, false
	}
	return ev, true
}

// exactInt parses the non-negative decimal integer at line[i:],
// returning its value and the index after it. ok is false unless it
// has 1 to 18 digits and no leading zero.
func exactInt(line []byte, i int) (v int64, next int, ok bool) {
	start := i
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		v = v*10 + int64(line[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || n > 1 && line[start] == '0' {
		return 0, i, false
	}
	return v, i, true
}

// validate applies the semantic checks to a line the reference parsed;
// decodeExact makes the same checks inline, and leaves every line
// validate would reject to the reference, so the messages come from
// here.
func validate(f fields) (Event, error) {
	if !f.hasU {
		return Event{}, fmt.Errorf("missing use index \"u\"")
	}
	if f.u < 1 {
		return Event{}, fmt.Errorf("use index %d < 1", f.u)
	}
	if !f.hasK {
		return Event{}, fmt.Errorf("missing event kind \"k\"")
	}
	kind, ok := KindFromCode(f.k)
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", f.k)
	}
	ev := Event{Use: f.u, Kind: kind, Injected: f.hasInj && f.inj != 0}
	wantS := kind != channel.EventInsert
	wantR := kind != channel.EventDelete
	if wantS != f.hasS {
		if wantS {
			return Event{}, fmt.Errorf("%s event missing sent symbol \"s\"", kind)
		}
		return Event{}, fmt.Errorf("%s event must not carry sent symbol \"s\"", kind)
	}
	if wantR != f.hasR {
		if wantR {
			return Event{}, fmt.Errorf("%s event missing received symbol \"r\"", kind)
		}
		return Event{}, fmt.Errorf("%s event must not carry received symbol \"r\" (deletions deliver nothing)", kind)
	}
	var err error
	if f.hasS {
		if ev.Sent, err = symbol("s", f.s); err != nil {
			return Event{}, err
		}
	}
	if f.hasR {
		if ev.Received, err = symbol("r", f.r); err != nil {
			return Event{}, err
		}
	}
	// Kind/symbol consistency: a clean transmit delivers what was sent,
	// a substitution by definition does not.
	if kind == channel.EventTransmit && ev.Received != ev.Sent {
		return Event{}, fmt.Errorf("T event delivered %d != sent %d (substitutions are kind S)", ev.Received, ev.Sent)
	}
	if kind == channel.EventSubstitute && ev.Received == ev.Sent {
		return Event{}, fmt.Errorf("S event delivered the sent symbol %d (clean transmits are kind T)", ev.Sent)
	}
	return ev, nil
}

// symbol range-checks one wire symbol.
func symbol(name string, v int64) (uint32, error) {
	if v < 0 || v > MaxSymbol {
		return 0, fmt.Errorf("symbol %q = %d out of [0, %d]", name, v, MaxSymbol)
	}
	return uint32(v), nil
}

// DecodeBatch strictly decodes an NDJSON event batch. Blank lines are
// skipped (but numbered). Use indices must be strictly increasing
// within the batch and all above after (the caller's session cursor,
// 0 for no constraint). On any malformed, truncated, oversized or
// out-of-order line the whole batch is rejected with a *DecodeError
// carrying the first bad line number; limit > 0 bounds the number of
// events accepted. DecodeBatch never panics on hostile input.
//
// A line in the exact layout EncodeEvents writes takes the fused,
// allocation-free decoder; every other line, and so every error, goes
// through the encoding/json reference. Both give identical events and
// errors (FuzzDecodeBatchDiff).
func DecodeBatch(r io.Reader, after int64, limit int) ([]Event, error) {
	sc := getScratch()
	defer putScratch(sc)
	return decodeBatch(r, after, limit, sc.line, nil, decodeLine)
}

// batchScratch is the memory a batch decode can reuse: the scanner's
// line buffer and the decoded events.
type batchScratch struct {
	line   []byte
	events []Event
}

// maxPooledEvents is the largest event capacity a pooled scratch
// keeps. Producers send batches of tens to hundreds of events; the
// slice of one batch at the maxBatchEvents cap (2 MiB) is dropped
// rather than pinned in the pool.
const maxPooledEvents = 4096

// scratchPool recycles batch scratch between decodes.
var scratchPool = sync.Pool{New: func() any {
	return &batchScratch{line: make([]byte, MaxLineBytes)}
}}

// getScratch takes batch scratch from the pool.
func getScratch() *batchScratch { return scratchPool.Get().(*batchScratch) }

// putScratch returns sc to the pool, without an event slice grown past
// maxPooledEvents.
func putScratch(sc *batchScratch) {
	if cap(sc.events) > maxPooledEvents {
		sc.events = nil
	}
	scratchPool.Put(sc)
}

// decodeBatch is the batch framing shared by DecodeBatch, Store.Ingest
// and decodeBatchReference: line splitting, blank-line skipping, the
// use cursor, the event limit and first-bad-line error reporting. It
// scans lines in buf (allocating one if buf has no capacity) and
// appends the events to events[:0]. On error the events are nil.
func decodeBatch(r io.Reader, after int64, limit int, buf []byte, events []Event, decode func([]byte) (Event, error)) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, MaxLineBytes)
	events = events[:0]
	prev := after
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := decode(raw)
		if err != nil {
			return nil, &DecodeError{Line: line, Err: err}
		}
		if ev.Use <= prev {
			return nil, &DecodeError{Line: line, Err: fmt.Errorf("%w: use %d after use %d", ErrOutOfOrder, ev.Use, prev)}
		}
		prev = ev.Use
		if limit > 0 && len(events) >= limit {
			return nil, &DecodeError{Line: line, Err: fmt.Errorf("batch exceeds %d events", limit)}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		// Scanner errors (line too long, reader failure) surface on the
		// line after the last good one.
		return nil, &DecodeError{Line: line + 1, Err: err}
	}
	return events, nil
}

// EncodeEvents writes events in the NDJSON wire form, the inverse of
// DecodeBatch (used by the loadgen and tests).
func EncodeEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		bw.WriteString(`{"u":`)
		writeInt(bw, ev.Use)
		bw.WriteString(`,"k":"`)
		bw.WriteString(ev.Kind.String())
		bw.WriteString(`"`)
		if ev.Kind != channel.EventInsert {
			bw.WriteString(`,"s":`)
			writeInt(bw, int64(ev.Sent))
		}
		if ev.Kind != channel.EventDelete {
			bw.WriteString(`,"r":`)
			writeInt(bw, int64(ev.Received))
		}
		if ev.Injected {
			bw.WriteString(`,"inj":1`)
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// writeInt appends a decimal int64 without fmt overhead.
func writeInt(bw *bufio.Writer, v int64) {
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	bw.Write(buf[i:])
}
