package session

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/channel"
)

// diffDecode decodes data with the fast DecodeBatch and with the
// reference and fails unless both return identical events, or
// *DecodeErrors with identical Line and Error() text.
func diffDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := DecodeBatch(bytes.NewReader(data), 0, 64)
	want, wantErr := decodeBatchReference(bytes.NewReader(data), 0, 64)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("fast error %v, reference error %v on %q", gotErr, wantErr, data)
	}
	if wantErr != nil {
		var g, w *DecodeError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
			t.Fatalf("errors %v / %v are not both *DecodeError", gotErr, wantErr)
		}
		if g.Line != w.Line || g.Error() != w.Error() {
			t.Fatalf("fast %q, reference %q on %q", g.Error(), w.Error(), data)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("fast decoded %d events, reference %d on %q", len(got), len(want), data)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: fast %+v, reference %+v on %q", i, got[i], want[i], data)
		}
	}
}

// TestWireContract pins the accepted wire language at its edges. Every
// row must decode identically on both paths; fast says whether the
// canonical scanner handles the (trimmed) line itself rather than
// falling back, so the subset boundary is pinned too.
func TestWireContract(t *testing.T) {
	cases := []struct {
		name string
		in   string
		fast bool
		want Event  // when err is empty
		err  string // substring of the *DecodeError text
	}{
		{"canonical", `{"u":1,"k":"T","s":3,"r":3}`, true,
			Event{Use: 1, Kind: channel.EventTransmit, Sent: 3, Received: 3}, ""},
		{"whitespace between tokens", "{ \"u\" :\t2 ,\r\"k\": \"S\" , \"s\":3,\"r\" : 4 }", true,
			Event{Use: 2, Kind: channel.EventSubstitute, Sent: 3, Received: 4}, ""},
		{"any key order", `{"r":0,"s":0,"k":"T","u":5}`, true,
			Event{Use: 5, Kind: channel.EventTransmit}, ""},
		{"uppercase keys match", `{"U":1,"K":"T","S":3,"R":3}`, false,
			Event{Use: 1, Kind: channel.EventTransmit, Sent: 3, Received: 3}, ""},
		{"kelvin sign folds to k", "{\"u\":1,\"\u212a\":\"D\",\"s\":3}", false,
			Event{Use: 1, Kind: channel.EventDelete, Sent: 3}, ""},
		{"last duplicate wins", `{"u":1,"u":2,"k":"T","s":3,"r":3}`, false,
			Event{Use: 2, Kind: channel.EventTransmit, Sent: 3, Received: 3}, ""},
		{"null is absent", `{"u":1,"k":"I","s":null,"r":2}`, false,
			Event{Use: 1, Kind: channel.EventInsert, Received: 2}, ""},
		{"escaped kind", `{"u":1,"k":"\u0054","s":3,"r":3}`, false,
			Event{Use: 1, Kind: channel.EventTransmit, Sent: 3, Received: 3}, ""},
		{"nonzero inj counts", `{"u":1,"k":"I","r":2,"inj":7}`, true,
			Event{Use: 1, Kind: channel.EventInsert, Received: 2, Injected: true}, ""},
		{"zero inj does not", `{"u":1,"k":"D","s":2,"inj":0}`, true,
			Event{Use: 1, Kind: channel.EventDelete, Sent: 2}, ""},
		{"max int64 use", `{"u":9223372036854775807,"k":"D","s":2}`, true,
			Event{Use: 1<<63 - 1, Kind: channel.EventDelete, Sent: 2}, ""},
		{"trailing nbsp trimmed", "{\"u\":1,\"k\":\"T\",\"s\":3,\"r\":3}\u00a0", true,
			Event{Use: 1, Kind: channel.EventTransmit, Sent: 3, Received: 3}, ""},
		{"minus zero", `{"u":-0,"k":"T","s":3,"r":3}`, true, Event{}, "use index 0 < 1"},
		{"min int64", `{"u":-9223372036854775808,"k":"T","s":3,"r":3}`, true, Event{},
			"use index -9223372036854775808 < 1"},
		{"empty object", `{}`, true, Event{}, `missing use index "u"`},
		{"symbol range", `{"u":1,"k":"T","s":16,"r":16}`, true, Event{}, `symbol "s" = 16 out of [0, 15]`},
		{"lowercase kind", `{"u":1,"k":"t","s":3,"r":3}`, false, Event{}, `unknown event kind "t"`},
		{"overflow", `{"u":9223372036854775808,"k":"T","s":3,"r":3}`, false, Event{}, "cannot unmarshal number"},
		{"leading zero", `{"u":01,"k":"T","s":3,"r":3}`, false, Event{}, "invalid character '1'"},
		{"exponent", `{"u":1e2,"k":"T","s":3,"r":3}`, false, Event{}, "cannot unmarshal number 1e2"},
		{"fraction", `{"u":1.0,"k":"T","s":3,"r":3}`, false, Event{}, "cannot unmarshal number 1.0"},
		{"unknown field", `{"u":1,"k":"T","s":3,"r":3,"x":1}`, false, Event{}, `unknown field "x"`},
		{"trailing data", `{"u":1,"k":"T","s":3,"r":3} 1`, false, Event{}, "trailing data after event object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := scanCanonical(bytes.TrimSpace([]byte(tc.in))); fast != tc.fast {
				t.Errorf("scanCanonical handles line: %v, want %v", fast, tc.fast)
			}
			for _, path := range []struct {
				name   string
				decode func(io.Reader, int64, int) ([]Event, error)
			}{{"fast", DecodeBatch}, {"reference", decodeBatchReference}} {
				events, err := path.decode(strings.NewReader(tc.in+"\n"), 0, 0)
				if tc.err != "" {
					var de *DecodeError
					if !errors.As(err, &de) || de.Line != 1 || !strings.Contains(err.Error(), tc.err) {
						t.Errorf("%s: error %v, want line-1 DecodeError containing %q", path.name, err, tc.err)
					}
					continue
				}
				if err != nil || len(events) != 1 || events[0] != tc.want {
					t.Errorf("%s: %+v, %v; want [%+v]", path.name, events, err, tc.want)
				}
			}
			diffDecode(t, []byte(tc.in+"\n"))
		})
	}
}

// randomOkLine renders a valid event for the given use, in a random
// spelling the reference accepts: shuffled keys, JSON whitespace, and
// sometimes a non-canonical form (uppercase key, escaped kind, null
// for an absent symbol, a duplicate key the last copy of which is
// right).
func randomOkLine(r *rand.Rand, use int64) string {
	kind := kindCodes[r.Intn(len(kindCodes))]
	sent := r.Intn(8)
	recv := sent
	if kind == 'S' {
		recv = (sent + 1 + r.Intn(7)) % 8
	}
	if kind == 'I' {
		recv = r.Intn(MaxSymbol + 1)
	}
	parts := []string{fmt.Sprintf(`"u":%d`, use), fmt.Sprintf(`"k":"%c"`, kind)}
	if kind != 'I' {
		parts = append(parts, fmt.Sprintf(`"s":%d`, sent))
	}
	if kind != 'D' {
		parts = append(parts, fmt.Sprintf(`"r":%d`, recv))
	}
	switch r.Intn(4) {
	case 0:
		parts = append(parts, `"inj":1`)
	case 1:
		parts = append(parts, fmt.Sprintf(`"inj":%d`, r.Intn(3)-1))
	}
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	for i, p := range parts {
		switch {
		case strings.HasPrefix(p, `"u":`) && r.Intn(10) == 0:
			parts[i] = `"U"` + p[3:]
		case strings.HasPrefix(p, `"k":`) && r.Intn(10) == 0:
			parts[i] = fmt.Sprintf(`"k":"\u%04X"`, kind)
		}
	}
	switch r.Intn(10) {
	case 0:
		parts = append([]string{`"u":1`}, parts...)
	case 1:
		if kind == 'I' {
			parts = append(parts, `"s":null`)
		}
		if kind == 'D' {
			parts = append(parts, `"r":null`)
		}
	}
	sep := []string{",", " , ", ",\t"}[r.Intn(3)]
	return "{" + strings.Join(parts, sep) + "}"
}

// randomBadLine renders a line the reference usually rejects: a valid
// line with a field malformed, out of range, unknown or null, cut
// short, or followed by junk.
func randomBadLine(r *rand.Rand, use int64) string {
	line := randomOkLine(r, use)
	switch r.Intn(12) {
	case 0:
		return strings.Replace(line, `"u":`, `"u":0`, 1)
	case 1:
		return strings.Replace(line, `"u":`, `"u":1e`, 1)
	case 2:
		return strings.Replace(line, `"u":`, `"u":99999999999999999999`, 1)
	case 3:
		return strings.Replace(line, `"u":`, `"u":-`, 1)
	case 4:
		return line[:r.Intn(len(line))]
	case 5:
		return line + `{}`
	case 6:
		return strings.Replace(line, "{", `{"bogus":1,`, 1)
	case 7:
		return strings.Replace(line, "{", `{"s":70000,`, 1)
	case 8:
		return strings.Replace(line, "{", `{"r":-1,`, 1)
	case 9:
		return strings.Replace(line, "{", `{"k":"X",`, 1)
	case 10:
		return strings.Replace(line, "{", `{"inj":true,`, 1)
	default:
		return strings.Replace(line, "{", `{"k":null,`, 1)
	}
}

// randomBatch renders a batch of mostly valid lines with increasing
// use indices, blank lines, and now and then a bad line.
func randomBatch(r *rand.Rand) []byte {
	var b strings.Builder
	use := int64(0)
	for n := 1 + r.Intn(8); n > 0; n-- {
		use += 1 + int64(r.Intn(3))
		switch r.Intn(8) {
		case 0:
			b.WriteString(randomBadLine(r, use))
		case 1:
			b.WriteString("  ")
		default:
			b.WriteString(randomOkLine(r, use))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// FuzzDecodeBatchDiff holds the fast decoder to the reference: for any
// bytes both return identical events, or identical first-bad-line
// errors.
func FuzzDecodeBatchDiff(f *testing.F) {
	for _, seed := range []string{
		`{"u":1,"k":"T","s":3,"r":3}`,
		`{"U":1,"K":"T","S":3,"R":3}`,
		`{"u":1,"u":2,"k":"T","s":3,"r":3}`,
		`{"u":1,"k":"I","s":null,"r":2}`,
		`{"u":1,"k":"\u0054","s":3,"r":3}`,
		`{"u":-0,"k":"T","s":3,"r":3}`,
		`{"u":9223372036854775808,"k":"T","s":3,"r":3}`,
		`{"u":-9223372036854775808,"k":"T","s":3,"r":3}`,
		`{"u":01,"k":"T","s":3,"r":3}`,
		`{"u":1e2,"k":"T","s":3,"r":3}`,
		`{"u":1,"k":"I","r":2,"inj":7}`,
		"{\"u\":1,\"k\":\"T\",\"s\":3,\"r\":3}\u00a0",
		"{\"u\":1,\"k\":\"T\",\"s\":3,\"r\":3}\v",
		`{"u":1,"k":"T","s":3,"r":3}` + "\r\n" + `{"u":1,"k":"T","s":3,"r":3}`,
		`{}`,
		`{"u":1,"k":"T","s":3,"r":3,}`,
	} {
		f.Add([]byte(seed + "\n"))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		f.Add(randomBatch(r))
	}
	f.Fuzz(diffDecode)
}

// TestDecodeBatchDiffGenerated runs many generated batches through the
// differential check, beyond the fuzz seed corpus.
func TestDecodeBatchDiffGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var accepted, rejected, fast int
	for i := 0; i < 3000; i++ {
		data := randomBatch(r)
		diffDecode(t, data)
		if _, err := DecodeBatch(bytes.NewReader(data), 0, 64); err != nil {
			rejected++
		} else {
			accepted++
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if _, ok := scanCanonical(line); ok {
				fast++
			}
		}
	}
	// Non-vacuity: the generator must reach both outcomes and the scanner.
	if accepted == 0 || rejected == 0 || fast == 0 {
		t.Fatalf("generated %d accepted, %d rejected batches, %d canonical lines", accepted, rejected, fast)
	}
}
