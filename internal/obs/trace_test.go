package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

func TestTracerJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Use(1, "T", 5, 5, false, false)
	tr.Use(2, "D", 6, 0, true, true)
	tr.Use(3, "I", 6, 9, false, false)
	tr.Event("chunk", I("chunk", 3), S("proto", "fallback"))
	tr.Span("blahut_arimoto", I("iters", 147), F("gap", 1e-11))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"t":"use","i":1,"k":"T","q":5,"d":5}`,
		`{"t":"use","i":2,"k":"D","q":6,"inj":1}`,
		`{"t":"use","i":3,"k":"I","q":6,"d":9}`,
		`{"t":"chunk","chunk":3,"proto":"fallback"}`,
		`{"t":"span","sp":"blahut_arimoto","iters":147,"gap":1e-11}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("trace:\n%s\nwant:\n%s", got, want)
	}
	if tr.Events() != 5 {
		t.Errorf("events = %d, want 5", tr.Events())
	}
}

// TestAppendString: on printable ASCII the tracer's string appender
// writes exactly strconv.AppendQuote's bytes, so such traces keep their
// bytes; on any other input it still writes a JSON string, which
// decodes to the input with each invalid UTF-8 byte read as U+FFFD.
func TestAppendString(t *testing.T) {
	var ascii []byte
	for c := byte(0x20); c < 0x7f; c++ {
		ascii = append(ascii, c)
		if got, want := appendString(nil, string(c)), strconv.AppendQuote(nil, string(c)); !bytes.Equal(got, want) {
			t.Errorf("%q: appended %s, want %s", c, got, want)
		}
	}
	if got, want := appendString(nil, string(ascii)), strconv.AppendQuote(nil, string(ascii)); !bytes.Equal(got, want) {
		t.Errorf("printable ASCII: appended %s, want %s", got, want)
	}
	for in, want := range map[string]string{
		"":                   "",
		"a\x80b":             "a\uFFFDb",
		"\xff\xfe":           "\uFFFD\uFFFD",
		"\x00\a\t\n\x1f\x7f": "\x00\a\t\n\x1f\x7f",
		"é\U0001F600\uFFFD":  "é\U0001F600\uFFFD",
	} {
		var got string
		if err := json.Unmarshal(appendString(nil, in), &got); err != nil || got != want {
			t.Errorf("%q: decoded %q (%v), want %q", in, got, err, want)
		}
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	// None of these may panic.
	tr.Use(1, "T", 0, 0, false, false)
	tr.Event("chunk")
	tr.Span("x")
	if err := tr.Flush(); err != nil {
		t.Errorf("nil flush: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
	if tr.Events() != 0 || tr.Err() != nil {
		t.Error("nil tracer carries state")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) is not the disabled tracer")
	}
}

func TestTracerBoundedBuffering(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.flushAt = 64
	for i := int64(1); i <= 10; i++ {
		tr.Use(i, "T", 1, 1, false, false)
	}
	if buf.Len() == 0 {
		t.Error("no flush despite exceeding the buffer bound")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 10 {
		t.Errorf("%d lines after close, want 10", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	params := channel.Params{N: 4, Pd: 0.2, Pi: 0.1, Ps: 0.05}
	ch, err := channel.NewDeletionInsertion(params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewChannelRecorder(ch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		rec.Use(uint32(i % 16))
	}
	tr.Event("chunk", I("chunk", 0), S("proto", "active"))
	tr.Event("attempt", I("chunk", 0), I("attempt", 1))
	tr.Event("attempt", I("chunk", 0), I("attempt", 2))
	tr.Event("backoff", I("uses", 32))
	tr.Event("resync", I("chunk", 0))
	tr.Event("chunkfail", I("chunk", 1))
	tr.Span("seqdecode", I("nodes", 1234))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.UseCounts != rec.Counts() {
		t.Errorf("trace counts %+v != live counts %+v", sum.UseCounts, rec.Counts())
	}
	if sum.Uses() != 5000 || rec.Uses() != 5000 {
		t.Errorf("uses %d / %d, want 5000", sum.Uses(), rec.Uses())
	}
	if sum.Chunks != 1 || sum.Attempts != 2 || sum.Retries != 1 ||
		sum.Resyncs != 1 || sum.FailedChunks != 1 || sum.BackoffUses != 32 {
		t.Errorf("supervision counts off: %+v", sum)
	}
	sp := sum.Spans["seqdecode"]
	if sp == nil || sp.Count != 1 || sp.Sums["nodes"] != 1234 {
		t.Errorf("span aggregation off: %+v", sp)
	}
	// The live estimate and the trace-derived estimate must agree.
	if live, traced := rec.Estimate(), sum.Estimate(); live != traced {
		t.Errorf("live estimate %+v != traced %+v", live, traced)
	}

	// Wrapping does not perturb the channel's draws: transmitting
	// through a recorder yields the bare channel's Transmit output at the
	// same seed, and the recorder tallies every use.
	input := make([]uint32, 500)
	for i := range input {
		input[i] = uint32(i*7) % 16
	}
	bare, err := channel.NewDeletionInsertion(params, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	wantRecv, wantTrace := bare.Transmit(input)
	wrapped, err := channel.NewDeletionInsertion(params, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	wrec, err := NewChannelRecorder(wrapped, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotRecv, gotTrace := channel.TransmitUses(wrec, input)
	if !slices.Equal(gotRecv, wantRecv) || !slices.Equal(gotTrace, wantTrace) {
		t.Fatal("recorder perturbed the channel's received sequence or trace")
	}
	var want UseCounts
	for _, k := range wantTrace {
		switch k {
		case channel.EventTransmit:
			want.Transmits++
		case channel.EventSubstitute:
			want.Substitutes++
		case channel.EventDelete:
			want.Deletes++
		case channel.EventInsert:
			want.Inserts++
		}
	}
	if wrec.Counts() != want || wrec.Uses() != int64(len(wantTrace)) {
		t.Errorf("recorder saw %+v over %d uses, trace has %+v over %d", wrec.Counts(), wrec.Uses(), want, len(wantTrace))
	}
}

// TestEstimatorRecovers locks the round-trip accuracy contract: on a
// seeded 1e5-use run, the trace-driven estimator must recover the
// injected (Pd, Pi, Ps) within its own Wilson 95% intervals.
func TestEstimatorRecovers(t *testing.T) {
	truth := channel.Params{N: 8, Pd: 0.12, Pi: 0.05, Ps: 0.03}
	ch, err := channel.NewDeletionInsertion(truth, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	rec, err := NewChannelRecorder(ch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	for i := 0; i < 100000; i++ {
		rec.Use(src.Symbol(truth.N))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	est := sum.Estimate()
	if est.Uses != 100000 {
		t.Fatalf("uses = %d", est.Uses)
	}
	if !est.Contains(truth.Pd, truth.Pi, truth.Ps) {
		t.Errorf("truth (%.3f, %.3f, %.3f) outside estimate CIs: %+v",
			truth.Pd, truth.Pi, truth.Ps, est)
	}
	// The intervals should be tight at this sample size.
	if est.PdHi-est.PdLo > 0.02 || est.PiHi-est.PiLo > 0.02 || est.PsHi-est.PsLo > 0.02 {
		t.Errorf("intervals implausibly wide at 1e5 uses: %+v", est)
	}
}

func TestTraceSetDeterministicOrder(t *testing.T) {
	emit := func(order []string) string {
		set := NewTraceSet()
		for _, name := range order {
			set.Tracer(name).Event("cell", S("exp", name))
		}
		var buf bytes.Buffer
		if _, err := set.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := emit([]string{"E9", "E1", "E13"})
	b := emit([]string{"E13", "E9", "E1"})
	if a != b {
		t.Errorf("trace set output depends on stream creation order:\n%s\nvs\n%s", a, b)
	}
	// Per-stream payloads differ (the i field tracks creation order),
	// but stream order is sorted: E1 before E13 before E9.
	if !(strings.Index(a, `"exp":"E1"`) < strings.Index(a, `"exp":"E13"`) &&
		strings.Index(a, `"exp":"E13"`) < strings.Index(a, `"exp":"E9"`)) {
		t.Errorf("streams not in sorted order:\n%s", a)
	}
}

func TestNilTraceSet(t *testing.T) {
	var set *TraceSet
	if tr := set.Tracer("x"); tr != nil {
		t.Error("nil set returned a live tracer")
	}
	if n, err := set.WriteTo(&bytes.Buffer{}); n != 0 || err != nil {
		t.Errorf("nil set WriteTo = (%d, %v)", n, err)
	}
	if set.Events() != 0 || set.Names() != nil {
		t.Error("nil set carries state")
	}
}

// BenchmarkRecorderDisabled measures the per-use overhead of a
// count-only recorder (nil tracer) against the raw channel, the
// contract behind the <3% hot-path regression bound.
func BenchmarkRecorderDisabled(b *testing.B) {
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4, Pd: 0.2, Pi: 0.1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	rec, err := NewChannelRecorder(ch, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Use(uint32(i & 15))
	}
}

func BenchmarkRawChannelUse(b *testing.B) {
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4, Pd: 0.2, Pi: 0.1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Use(uint32(i & 15))
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4, Pd: 0.2, Pi: 0.1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewChannelRecorder(ch, NewTracer(&buf), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Use(uint32(i & 15))
		if buf.Len() > 1<<22 {
			buf.Reset()
		}
	}
}
