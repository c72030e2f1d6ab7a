package session

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
)

// traceUse is the test-side decoding of one obs trace "use" line.
type traceUse struct {
	T   string `json:"t"`
	I   int64  `json:"i"`
	K   string `json:"k"`
	Q   uint32 `json:"q"`
	D   uint32 `json:"d"`
	Inj int    `json:"inj"`
}

// recordTrace simulates uses of a seeded channel (optionally under a
// fault stack) through a ChannelRecorder with a tracer attached and
// returns the raw JSONL trace.
func recordTrace(t *testing.T, params channel.Params, inject string, uses int, seed uint64) []byte {
	t.Helper()
	src := rng.NewStream(seed, 0)
	ch, err := channel.NewDeletionInsertion(params, src)
	if err != nil {
		t.Fatalf("channel: %v", err)
	}
	spec, err := faultinject.ParseSpec(inject)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	stack, err := spec.Build(ch, params.N, rng.NewStream(seed, 1))
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	rec, err := obs.NewChannelRecorder(stack, tr, stack.Injected)
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	symbols := rng.NewStream(seed, 2)
	queued, have := uint32(0), false
	for i := 0; i < uses; i++ {
		if !have {
			queued = symbols.Symbol(params.N)
			have = true
		}
		if rec.Use(queued).Consumed {
			have = false
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	return buf.Bytes()
}

// eventsFromTrace converts a recorded trace's "use" lines into session
// Events, the replay a streaming client would send.
func eventsFromTrace(t *testing.T, raw []byte) []Event {
	t.Helper()
	var events []Event
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var u traceUse
		if err := json.Unmarshal(line, &u); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if u.T != "use" {
			continue
		}
		kind, ok := KindFromCode(u.K)
		if !ok {
			t.Fatalf("trace line %q: bad kind", line)
		}
		ev := Event{Use: u.I, Kind: kind, Injected: u.Inj != 0}
		switch kind {
		case channel.EventTransmit, channel.EventSubstitute:
			ev.Sent, ev.Received = u.Q, u.D
		case channel.EventDelete:
			ev.Sent = u.Q
		case channel.EventInsert:
			ev.Received = u.D
		}
		events = append(events, ev)
	}
	return events
}

// mustEqualEstimates asserts exact (bitwise) float equality on every
// estimate field — the online path must be indistinguishable from
// batch, not merely close.
func mustEqualEstimates(t *testing.T, online, batch obs.Estimate) {
	t.Helper()
	if online != batch {
		t.Fatalf("online estimate diverges from batch:\nonline: %+v\nbatch:  %+v", online, batch)
	}
}

// TestOnlineMatchesBatchBitExact is the satellite property test:
// feeding a recorded trace event-by-event through the online session
// estimator yields exactly the same (Pd, Pi, Ps) point estimates and
// Wilson intervals as batch obs.Estimate on the full trace — at every
// prefix length, not just the end, since an online estimator is
// queried mid-stream.
func TestOnlineMatchesBatchBitExact(t *testing.T) {
	cases := []struct {
		name   string
		params channel.Params
		inject string
		uses   int
		seed   uint64
	}{
		{"typical", channel.Params{N: 4, Pd: 0.08, Pi: 0.05, Ps: 0.03}, "", 5000, 7},
		{"hostile", channel.Params{N: 3, Pd: 0.2, Pi: 0.15, Ps: 0.1}, "drift=0.3;jam=0.1", 5000, 11},
		{"deletion-heavy", channel.Params{N: 2, Pd: 0.7, Pi: 0.0, Ps: 0.5}, "", 2000, 13},
		{"tiny", channel.Params{N: 1, Pd: 0.1, Pi: 0.1, Ps: 0.2}, "", 17, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := recordTrace(t, tc.params, tc.inject, tc.uses, tc.seed)
			events := eventsFromTrace(t, raw)

			sess := New("prop")
			var running obs.UseCounts
			for i, ev := range events {
				if err := sess.Apply(ev); err != nil {
					t.Fatalf("apply event %d: %v", i, err)
				}
				// Prefix check: online estimate after i+1 events equals
				// batch estimate of the first i+1 events.
				switch ev.Kind {
				case channel.EventTransmit:
					running.Transmits++
				case channel.EventSubstitute:
					running.Substitutes++
				case channel.EventDelete:
					running.Deletes++
				case channel.EventInsert:
					running.Inserts++
				}
				if ev.Injected {
					running.Injected++
				}
				mustEqualEstimates(t, sess.Estimate(), running.Estimate())
			}

			// Full-trace check against the real batch pipeline.
			sum, err := obs.ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			if got, want := sess.Counts(), sum.UseCounts; got != want {
				t.Fatalf("online counts %+v != batch counts %+v", got, want)
			}
			mustEqualEstimates(t, sess.Estimate(), sum.Estimate())
			if sess.LastUse() != int64(len(events)) {
				t.Fatalf("last use %d, want %d", sess.LastUse(), len(events))
			}
		})
	}
}

// TestOnlineMatchesBatchQuick drives the same property through
// testing/quick over arbitrary count vectors: any tally reachable by
// accumulation produces the identical estimate both ways.
func TestOnlineMatchesBatchQuick(t *testing.T) {
	f := func(tr, sub, del, ins uint16) bool {
		var est Estimator
		use := int64(0)
		emit := func(kind channel.EventKind, n uint16) {
			for i := uint16(0); i < n; i++ {
				use++
				est.Apply(Event{Use: use, Kind: kind})
			}
		}
		emit(channel.EventTransmit, tr%200)
		emit(channel.EventSubstitute, sub%200)
		emit(channel.EventDelete, del%200)
		emit(channel.EventInsert, ins%200)
		batch := obs.UseCounts{
			Transmits:   int64(tr % 200),
			Substitutes: int64(sub % 200),
			Deletes:     int64(del % 200),
			Inserts:     int64(ins % 200),
		}
		return est.Estimate() == batch.Estimate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRejectsOutOfOrder pins the ordering contract.
func TestSessionRejectsOutOfOrder(t *testing.T) {
	sess := New("ord")
	for _, u := range []int64{1, 2, 5} {
		if err := sess.Apply(Event{Use: u, Kind: channel.EventTransmit}); err != nil {
			t.Fatalf("apply use %d: %v", u, err)
		}
	}
	before := sess.Counts()
	if err := sess.Apply(Event{Use: 5, Kind: channel.EventDelete}); err == nil {
		t.Fatal("replayed use index accepted")
	}
	if err := sess.Apply(Event{Use: 3, Kind: channel.EventDelete}); err == nil {
		t.Fatal("stale use index accepted")
	}
	if sess.Counts() != before {
		t.Fatal("rejected events mutated the estimator")
	}
}
