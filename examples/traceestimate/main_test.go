package main

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestExampleRuns checks the example executes cleanly end to end.
func TestExampleRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}

// traceRun drives ~uses channel uses with the given truth parameters
// through a recorded channel, returning the recorded JSONL trace and
// the sent/received sequences for the alignment estimator.
func traceRun(t *testing.T, truth channel.Params, uses int, seed uint64) (traceBytes []byte, sent, received []uint32) {
	t.Helper()
	ch, err := channel.NewDeletionInsertion(truth, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	rec, err := obs.NewChannelRecorder(ch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent = make([]uint32, uses)
	src := rng.New(seed + 1)
	for i := range sent {
		sent[i] = src.Symbol(truth.N)
	}
	received, _ = channel.TransmitUses(rec, sent)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sent, received
}

// TestTraceRoundTrip is the example's workflow run against an
// obs-emitted JSONL trace instead of an alignment: on a seeded
// 10^5-use run, the trace-driven estimator must recover the injected
// (Pd, Pi, Ps) within its own Wilson intervals, and the alignment
// estimator of core.EstimateFromTrace must land inside those same
// intervals — the two estimation routes agree on one recorded run.
func TestTraceRoundTrip(t *testing.T) {
	truth := channel.Params{N: 16, Pd: 0.04, Pi: 0.02, Ps: 0.01}
	trace, _, _ := traceRun(t, truth, 100000, 2024)

	sum, err := obs.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	est := sum.Estimate()
	if est.Uses < 100000 {
		t.Fatalf("trace recorded %d uses, want >= 100000", est.Uses)
	}
	if !est.Contains(truth.Pd, truth.Pi, truth.Ps) {
		t.Errorf("injected (%.3f, %.3f, %.3f) outside observed CIs: pd [%.4f,%.4f] pi [%.4f,%.4f] ps [%.4f,%.4f]",
			truth.Pd, truth.Pi, truth.Ps,
			est.PdLo, est.PdHi, est.PiLo, est.PiHi, est.PsLo, est.PsHi)
	}

	// The analyst route of the example: align sent against received
	// without seeing the trace. Alignment is a quadratic DP, so the
	// cross-check runs on a shorter slice of the same channel family;
	// its point estimates must fall inside the trace-driven intervals
	// of its own run.
	shortTrace, sent, received := traceRun(t, truth, 8000, 2024)
	shortSum, err := obs.ReadTrace(bytes.NewReader(shortTrace))
	if err != nil {
		t.Fatal(err)
	}
	shortEst := shortSum.Estimate()
	aligned, err := core.EstimateFromTrace(sent, received, truth.N)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.Params.Pd < shortEst.PdLo || aligned.Params.Pd > shortEst.PdHi {
		t.Errorf("alignment Pd %.4f outside trace CI [%.4f, %.4f]",
			aligned.Params.Pd, shortEst.PdLo, shortEst.PdHi)
	}
	if aligned.Params.Pi < shortEst.PiLo || aligned.Params.Pi > shortEst.PiHi {
		t.Errorf("alignment Pi %.4f outside trace CI [%.4f, %.4f]",
			aligned.Params.Pi, shortEst.PiLo, shortEst.PiHi)
	}

	// Feeding the observed point back into the paper's bounds must
	// give a capacity close to the truth-parameter bounds.
	obsBounds, err := core.ComputeBounds(channel.Params{N: truth.N, Pd: est.Pd, Pi: est.Pi, Ps: est.Ps})
	if err != nil {
		t.Fatal(err)
	}
	trueBounds, err := core.ComputeBounds(truth)
	if err != nil {
		t.Fatal(err)
	}
	if diff := obsBounds.Upper - trueBounds.Upper; diff > 0.05 || diff < -0.05 {
		t.Errorf("observed upper bound %.4f far from truth %.4f", obsBounds.Upper, trueBounds.Upper)
	}
}

// TestTraceDeterministic checks the recorded trace is a pure function
// of the seed: two identical runs emit byte-identical JSONL. (The
// jobs-independence half of the reproducibility contract — identical
// traces at -jobs=1 vs -jobs=8 — is locked by
// TestRunnerTraceParallelMatchesSerial in internal/experiments.)
func TestTraceDeterministic(t *testing.T) {
	truth := channel.Params{N: 8, Pd: 0.1, Pi: 0.05, Ps: 0.02}
	a, _, _ := traceRun(t, truth, 20000, 7)
	b, _, _ := traceRun(t, truth, 20000, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different traces")
	}
}
