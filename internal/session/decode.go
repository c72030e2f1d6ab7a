package session

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

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

// MaxSymbol bounds wire symbols to the widest channel alphabet the
// system serves (16-bit, matching capserver's MaxSymbols ceiling).
const MaxSymbol = 1<<16 - 1

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
// layers: a syntax layer yields a fields value, and validate applies
// every semantic check. The fast syntax layer, scanCanonical, handles
// only the canonical subset EncodeEvents emits, without reflection or
// allocation; any other line is re-decoded by the reference, which
// therefore produces every syntax error message.

// fields is one event line after the syntax layer: raw values with
// presence flags, before any semantic check.
type fields struct {
	u, s, r, inj                   int64
	k                              string
	hasU, hasK, hasS, hasR, hasInj bool
}

// kindCodes holds the wire kind letters; the scanner slices its kind
// strings out of it so that a canonical line allocates nothing.
const kindCodes = "TSDI"

// decodeLine strictly decodes one NDJSON line into an Event: the
// canonical-subset scanner when it applies, the reference otherwise.
func decodeLine(line []byte) (Event, error) {
	if f, ok := scanCanonical(line); ok {
		return validate(f)
	}
	return decodeLineReference(line)
}

// scanCanonical parses line if it lies in the canonical subset of the
// wire language: exactly one JSON object with JSON whitespace between
// tokens, the exact lowercase keys u, k, s, r and inj each at most
// once, integer values with no fraction, exponent or leading zero that
// fit an int64, and for k a one-letter unescaped T, S, D or I. ok is
// false for every other line — including ones the reference accepts,
// such as uppercase or duplicate keys, null, escapes and "1.0" — so
// the caller falls back to the reference.
func scanCanonical(line []byte) (f fields, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return f, false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return f, skipSpace(line, i+1) == len(line)
	}
	for {
		if i == len(line) || line[i] != '"' {
			return f, false
		}
		end := i + 1
		for end < len(line) && line[end] != '"' {
			end++
		}
		if end == len(line) {
			return f, false
		}
		key := line[i+1 : end]
		i = skipSpace(line, end+1)
		if i == len(line) || line[i] != ':' {
			return f, false
		}
		i = skipSpace(line, i+1)
		var v *int64
		var seen *bool
		switch string(key) {
		case "u":
			v, seen = &f.u, &f.hasU
		case "s":
			v, seen = &f.s, &f.hasS
		case "r":
			v, seen = &f.r, &f.hasR
		case "inj":
			v, seen = &f.inj, &f.hasInj
		case "k":
			if f.hasK || i+3 > len(line) || line[i] != '"' || line[i+2] != '"' {
				return f, false
			}
			c := strings.IndexByte(kindCodes, line[i+1])
			if c < 0 {
				return f, false
			}
			f.k, f.hasK = kindCodes[c:c+1], true
			i += 3
		default:
			return f, false
		}
		if v != nil {
			if *seen {
				return f, false
			}
			if *v, i, ok = scanInt(line, i); !ok {
				return f, false
			}
			*seen = true
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return f, false
		}
		if line[i] == '}' {
			return f, skipSpace(line, i+1) == len(line)
		}
		if line[i] != ',' {
			return f, false
		}
		i = skipSpace(line, i+1)
	}
}

// skipSpace returns the index of the first non-JSON-whitespace byte of
// b at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanInt parses the optionally negative decimal integer at b[i:],
// returning its value and the index after it. A leading 0 is the
// whole integer, so "01" leaves "1" for the caller to reject; ok is
// false on no digits or int64 overflow.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0, i, false
	}
	if b[i] == '0' {
		return 0, i + 1, true
	}
	var mag uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if mag > (limit-d)/10 {
			return 0, i, false
		}
		mag = mag*10 + d
	}
	if neg {
		return int64(-mag), i, true
	}
	return int64(mag), i, true
}

// validate applies the semantic checks every decoded line must pass,
// whichever syntax layer produced it.
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
// Canonical lines take the allocation-free scanner; every other line,
// and so every syntax error, goes through the encoding/json reference.
// Both give identical events and errors (FuzzDecodeBatchDiff).
func DecodeBatch(r io.Reader, after int64, limit int) ([]Event, error) {
	return decodeBatch(r, after, limit, decodeLine)
}

// decodeBatch is the batch framing shared by DecodeBatch and
// decodeBatchReference: line splitting, blank-line skipping, the use
// cursor, the event limit and first-bad-line error reporting.
func decodeBatch(r io.Reader, after int64, limit int, decode func([]byte) (Event, error)) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), MaxLineBytes)
	var events []Event
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
