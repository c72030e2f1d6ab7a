package syncproto

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/obs"
)

func TestNewNaiveValidation(t *testing.T) {
	if _, err := NewNaive(nil); err == nil {
		t.Fatal("expected nil channel error")
	}
}

func TestNaiveCleanChannelIsPerfect(t *testing.T) {
	naive, err := NewNaive(mustChannel(t, channel.Params{N: 4}, 1))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(2, 2000, 4)
	res, err := naive.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SymbolErrors != 0 || res.InfoRatePerUse() < 3.9 {
		t.Fatalf("clean naive run degraded: %+v", res)
	}
}

func TestNaiveCollapsesUnderDrift(t *testing.T) {
	// The motivating failure: a few percent of deletions destroys the
	// positional channel almost completely for long messages, while
	// the counter protocol on the same channel parameters stays near
	// capacity.
	p := channel.Params{N: 4, Pd: 0.05, Pi: 0.05}
	naive, err := NewNaive(mustChannel(t, p, 3))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(4, 20000, 4)
	resNaive, err := naive.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounter(mustChannel(t, p, 5))
	if err != nil {
		t.Fatal(err)
	}
	resCounter, err := counter.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if resNaive.InfoRatePerUse() > 0.2 {
		t.Fatalf("naive rate %v should have collapsed", resNaive.InfoRatePerUse())
	}
	if resCounter.InfoRatePerUse() < 3 {
		t.Fatalf("counter rate %v should stay near capacity", resCounter.InfoRatePerUse())
	}
	if resNaive.SkippedSymbols == 0 {
		t.Fatal("naive run should report deletion and insertion events")
	}
}

func TestNaiveRejectsInvalidSymbols(t *testing.T) {
	naive, err := NewNaive(mustChannel(t, channel.Params{N: 2}, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Run([]uint32{4}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestNaiveSenderOpsExcludeInsertions(t *testing.T) {
	p := channel.Params{N: 2, Pi: 0.3}
	naive, err := NewNaive(mustChannel(t, p, 9))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(10, 5000, 2)
	res, err := naive.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SenderOps != len(msg) {
		t.Fatalf("sender ops %d, want %d (one per message symbol)", res.SenderOps, len(msg))
	}
	if res.Uses <= res.SenderOps {
		t.Fatal("insertions should add channel uses beyond sender ops")
	}
}

// TestNaiveSkipsCountTraceEvents checks that SkippedSymbols is the
// channel's deletion plus insertion count, as a recorder wrapped
// around the channel tallies them.
func TestNaiveSkipsCountTraceEvents(t *testing.T) {
	rec, err := obs.NewChannelRecorder(mustChannel(t, channel.Params{N: 4, Pd: 0.1, Pi: 0.1}, 13), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaiveOver(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := naive.Run(randomMessage(14, 5000, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Counts()
	if want := int(c.Deletes + c.Inserts); res.SkippedSymbols != want || want == 0 {
		t.Errorf("skipped symbols = %d, recorder saw %d deletions + %d insertions", res.SkippedSymbols, c.Deletes, c.Inserts)
	}
}
