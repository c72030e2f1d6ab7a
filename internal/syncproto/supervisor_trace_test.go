package syncproto

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/obs"
)

// tracedDeadRun drives the dead-channel supervision scenario (every
// attempt fails, every chunk is abandoned) with a tracer attached and
// returns the result plus the raw trace bytes.
func tracedDeadRun(t *testing.T) (SupervisedResult, []byte) {
	t.Helper()
	const n = 4
	meter := meteredChannel(t, channel.Params{N: n, Pd: 1}, 4)
	arq, err := NewARQOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	sup, err := NewSupervisor(arq, counter, meter, SupervisorConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run(superMsg(5, 2*chunkSymbols, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSupervisorTraceMatchesResult checks that the supervision counts
// obs.ReadTrace recovers from a traced run are the SupervisedResult's.
func TestSupervisorTraceMatchesResult(t *testing.T) {
	res, raw := tracedDeadRun(t)
	sum, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := [...]int64{sum.Chunks, sum.Attempts, sum.Retries, sum.Resyncs, sum.FailedChunks, sum.BackoffUses}
	want := [...]int64{int64(res.Chunks), int64(res.Attempts), int64(res.Retries), int64(res.Resyncs), int64(res.FailedChunks), res.BackoffUses}
	if got != want {
		t.Errorf("trace chunks, attempts, retries, resyncs, failed chunks, backoff uses = %v, result has %v", got, want)
	}
	// On a dead channel every attempt fails, so every attempt is a retry.
	if sum.Retries != sum.Attempts || sum.Retries == 0 {
		t.Errorf("trace retries = %d of %d attempts, want all", sum.Retries, sum.Attempts)
	}
}

// TestSupervisorTraceResync checks the divergence-driven event: a naive
// protocol that drifts off sync forces a resync to the counter
// fallback, which the trace must report.
func TestSupervisorTraceResync(t *testing.T) {
	const n = 4
	meter := meteredChannel(t, channel.Params{N: n, Pd: 0.1, Pi: 0.05}, 11)
	naive, err := NewNaiveOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	sup, err := NewSupervisor(naive, counter, meter, SupervisorConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run(superMsg(12, 8000, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resyncs != int64(res.Resyncs) || sum.Resyncs != 1 {
		t.Errorf("trace resyncs = %d, result %d, want 1", sum.Resyncs, res.Resyncs)
	}
}

// TestSupervisorTraceDeterministic replays the traced dead-channel run
// and requires byte-identical trace output.
func TestSupervisorTraceDeterministic(t *testing.T) {
	_, a := tracedDeadRun(t)
	_, b := tracedDeadRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("trace is not replayable:\n%q\n%q", a, b)
	}
}
