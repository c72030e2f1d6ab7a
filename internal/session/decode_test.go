package session

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
)

func TestDecodeBatchAccepts(t *testing.T) {
	in := strings.Join([]string{
		`{"u":1,"k":"T","s":3,"r":3}`,
		`{"u":2,"k":"S","s":3,"r":5}`,
		``,
		`{"u":4,"k":"D","s":7}`,
		`  {"u":9,"k":"I","r":2,"inj":1}  `,
	}, "\n")
	events, err := DecodeBatch(strings.NewReader(in), 0, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := []Event{
		{Use: 1, Kind: channel.EventTransmit, Sent: 3, Received: 3},
		{Use: 2, Kind: channel.EventSubstitute, Sent: 3, Received: 5},
		{Use: 4, Kind: channel.EventDelete, Sent: 7},
		{Use: 9, Kind: channel.EventInsert, Received: 2, Injected: true},
	}
	if len(events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		line int
	}{
		{"not json", "nonsense\n", 1},
		{"truncated", `{"u":1,"k":"T","s":3,"r"` + "\n", 1},
		{"missing u", `{"k":"T","s":1,"r":1}` + "\n", 1},
		{"zero u", `{"u":0,"k":"T","s":1,"r":1}` + "\n", 1},
		{"negative u", `{"u":-4,"k":"T","s":1,"r":1}` + "\n", 1},
		{"missing kind", `{"u":1,"s":1,"r":1}` + "\n", 1},
		{"bad kind", `{"u":1,"k":"X","s":1,"r":1}` + "\n", 1},
		{"unknown field", `{"u":1,"k":"T","s":1,"r":1,"bogus":2}` + "\n", 1},
		{"trailing data", `{"u":1,"k":"T","s":1,"r":1}{"u":2}` + "\n", 1},
		{"delete with r", `{"u":1,"k":"D","s":1,"r":1}` + "\n", 1},
		{"delete missing s", `{"u":1,"k":"D"}` + "\n", 1},
		{"insert with s", `{"u":1,"k":"I","s":1,"r":1}` + "\n", 1},
		{"transmit missing r", `{"u":1,"k":"T","s":1}` + "\n", 1},
		{"transmit r!=s", `{"u":1,"k":"T","s":1,"r":2}` + "\n", 1},
		{"substitute r==s", `{"u":1,"k":"S","s":1,"r":1}` + "\n", 1},
		{"symbol too big", `{"u":1,"k":"T","s":70000,"r":70000}` + "\n", 1},
		{"negative symbol", `{"u":1,"k":"T","s":-1,"r":-1}` + "\n", 1},
		{"float use", `{"u":1.5,"k":"T","s":1,"r":1}` + "\n", 1},
		{"second line bad", `{"u":1,"k":"T","s":1,"r":1}` + "\n" + `broken` + "\n", 2},
		{"out of order", `{"u":2,"k":"T","s":1,"r":1}` + "\n" + `{"u":2,"k":"T","s":1,"r":1}` + "\n", 2},
		{"regressing", `{"u":5,"k":"T","s":1,"r":1}` + "\n" + `{"u":3,"k":"T","s":1,"r":1}` + "\n", 2},
		{"oversized line", `{"u":1,"k":"T","s":1,"r":1,` + strings.Repeat(" ", MaxLineBytes) + "}\n", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := DecodeBatch(strings.NewReader(tc.in), 0, 0)
			if err == nil {
				t.Fatalf("accepted %d events from %q", len(events), tc.in)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if de.Line != tc.line {
				t.Fatalf("reported line %d, want %d (%v)", de.Line, tc.line, err)
			}
		})
	}
}

func TestDecodeBatchCursorAndLimit(t *testing.T) {
	in := `{"u":5,"k":"T","s":1,"r":1}` + "\n"
	if _, err := DecodeBatch(strings.NewReader(in), 5, 0); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("stale batch error %v, want ErrOutOfOrder", err)
	}
	if events, err := DecodeBatch(strings.NewReader(in), 4, 0); err != nil || len(events) != 1 {
		t.Fatalf("fresh batch: %v (%d events)", err, len(events))
	}
	two := in + `{"u":6,"k":"T","s":1,"r":1}` + "\n"
	var de *DecodeError
	if _, err := DecodeBatch(strings.NewReader(two), 0, 1); !errors.As(err, &de) || de.Line != 2 {
		t.Fatalf("limit error %v, want line-2 DecodeError", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := []Event{
		{Use: 1, Kind: channel.EventTransmit, Sent: 9, Received: 9},
		{Use: 2, Kind: channel.EventDelete, Sent: 4},
		{Use: 3, Kind: channel.EventInsert, Received: 15, Injected: true},
		{Use: 7, Kind: channel.EventSubstitute, Sent: 0, Received: 12},
	}
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeBatch(&buf, 0, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzDecodeBatch is the satellite fuzz target: arbitrary input must
// either decode cleanly or be rejected with a positive first-bad-line
// number — never a panic, and accepted batches must obey the ordering
// and field invariants the decoder promises.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"u":1,"k":"T","s":3,"r":3}` + "\n"))
	f.Add([]byte(`{"u":1,"k":"D","s":3}` + "\n" + `{"u":2,"k":"I","r":1}` + "\n"))
	f.Add([]byte(`{"u":1,"k":"T","s":3,"r"`))
	f.Add([]byte(`{"u":2,"k":"T","s":1,"r":1}` + "\n" + `{"u":1,"k":"T","s":1,"r":1}` + "\n"))
	f.Add([]byte("\x00\xff{{{"))
	f.Add([]byte(`{"u":1e300,"k":"T","s":0,"r":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeBatch(bytes.NewReader(data), 0, 1024)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if de.Line < 1 {
				t.Fatalf("bad line number %d", de.Line)
			}
			return
		}
		prev := int64(0)
		for _, ev := range events {
			if ev.Use <= prev {
				t.Fatalf("accepted out-of-order use %d after %d", ev.Use, prev)
			}
			prev = ev.Use
			switch ev.Kind {
			case channel.EventTransmit:
				if ev.Sent != ev.Received {
					t.Fatalf("accepted T with r != s: %+v", ev)
				}
			case channel.EventSubstitute:
				if ev.Sent == ev.Received {
					t.Fatalf("accepted S with r == s: %+v", ev)
				}
			case channel.EventDelete, channel.EventInsert:
			default:
				t.Fatalf("accepted unknown kind %v", ev.Kind)
			}
			if ev.Sent > MaxSymbol || ev.Received > MaxSymbol {
				t.Fatalf("accepted oversized symbol: %+v", ev)
			}
		}
	})
}

// TestDecodeLineZeroAlloc pins the fused decoder's cost contract: an
// exact-layout line of any kind decodes without a heap allocation.
func TestDecodeLineZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, []Event{
		{Use: 1, Kind: channel.EventTransmit, Sent: 9, Received: 9},
		{Use: 2, Kind: channel.EventSubstitute, Sent: 4, Received: 5},
		{Use: 3, Kind: channel.EventDelete, Sent: 4, Injected: true},
		{Use: 4, Kind: channel.EventInsert, Received: 15},
	}); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var err error
		allocs := testing.AllocsPerRun(1000, func() {
			_, err = decodeLine(line)
		})
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per line, want 0", line, allocs)
		}
	}
}

var decodeSink []Event

// exactBatches renders n consecutive 256-event batches in the exact
// layout, batch k's uses following batch k-1's: the shape of the
// session-stream benchmark's posts.
func exactBatches(tb testing.TB, n int) [][]byte {
	tb.Helper()
	bodies := make([][]byte, n)
	events := make([]Event, 256)
	for k := range bodies {
		for i := range events {
			ev := Event{Use: int64(k*len(events) + i + 1), Kind: channel.EventKind(i%4 + 1), Sent: uint32(i % 7), Received: uint32(i % 7)}
			switch ev.Kind {
			case channel.EventSubstitute:
				ev.Received = ev.Sent + 1
			case channel.EventDelete:
				ev.Received = 0
			case channel.EventInsert:
				ev.Sent = 0
			}
			events[i] = ev
		}
		var buf bytes.Buffer
		if err := EncodeEvents(&buf, events); err != nil {
			tb.Fatal(err)
		}
		bodies[k] = buf.Bytes()
	}
	return bodies
}

// BenchmarkDecodeBatch times one 256-event batch through the fast
// decoder, through the encoding/json reference, and through
// Store.Ingest, which decodes into pooled scratch and applies the
// events to an open session.
func BenchmarkDecodeBatch(b *testing.B) {
	bodies := exactBatches(b, 64)
	body := bodies[0]
	for _, bc := range []struct {
		name   string
		decode func(io.Reader, int64, int) ([]Event, error)
	}{{"fast", DecodeBatch}, {"reference", decodeBatchReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				got, err := bc.decode(bytes.NewReader(body), 0, 0)
				if err != nil || len(got) != 256 {
					b.Fatalf("decoded %d events: %v", len(got), err)
				}
				decodeSink = got
			}
		})
	}
	b.Run("ingest", func(b *testing.B) {
		s, err := NewStore(StoreConfig{})
		if err != nil {
			b.Fatal(err)
		}
		var rd bytes.Reader
		var id string
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			// Each session takes the batches in order, so every ingest
			// lands above its cursor; one in len(bodies) opens a session.
			k := i % len(bodies)
			if k == 0 {
				id = "bench-" + strconv.Itoa(i)
			}
			rd.Reset(bodies[k])
			if n, _, err := s.Ingest(id, &rd); err != nil || n != 256 {
				b.Fatalf("ingested %d events: %v", n, err)
			}
		}
	})
}
