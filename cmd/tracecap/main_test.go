package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/rng"
)

// writeTrace records a seeded run over a known channel into a JSONL
// file and returns its path.
func writeTrace(t *testing.T, params channel.Params, symbols int, seed uint64) string {
	t.Helper()
	ch, err := channel.NewDeletionInsertion(params, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	rec, err := obs.NewChannelRecorder(ch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]uint32, symbols)
	src := rng.New(seed + 1)
	for i := range msg {
		msg[i] = src.Symbol(params.N)
	}
	channel.TransmitUses(rec, msg)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeFile checks the plain analysis: event tallies and the
// (Pd, Pi, Ps) estimate with intervals.
func TestAnalyzeFile(t *testing.T) {
	path := writeTrace(t, channel.Params{N: 4, Pd: 0.1, Pi: 0.05, Ps: 0.02}, 20000, 7)
	var out bytes.Buffer
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace events:", "observed Pd:", "observed Pi:", "observed Ps:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestAnalyzeStdin checks reading the trace from stdin.
func TestAnalyzeStdin(t *testing.T) {
	path := writeTrace(t, channel.Params{N: 4, Pd: 0.1}, 5000, 3)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, bytes.NewReader(b), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "observed Pd:") {
		t.Fatalf("stdin analysis missing estimate:\n%s", out.String())
	}
}

// TestAssumedComparison checks the assumed-vs-observed verdict and the
// two bounds blocks: matching parameters agree, a wrong assumed point
// is rejected.
func TestAssumedComparison(t *testing.T) {
	path := writeTrace(t, channel.Params{N: 4, Pd: 0.1, Pi: 0.05, Ps: 0.02}, 20000, 2)
	var out bytes.Buffer
	if err := run([]string{"-n", "4", "-pd", "0.1", "-pi", "0.05", "-ps", "0.02", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"agrees with the assumed point", "assumed upper:", "observed upper:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"-n", "4", "-pd", "0.4", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "REJECTS the assumed point") {
		t.Fatalf("wrong assumed point not rejected:\n%s", out.String())
	}
}

// TestRunErrors covers the failure modes: missing file, empty trace,
// malformed lines, too many arguments, -n without -pd.
func TestRunErrors(t *testing.T) {
	good := writeTrace(t, channel.Params{N: 4, Pd: 0.1}, 1000, 1)
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{name: "missing file", args: []string{filepath.Join(t.TempDir(), "absent.jsonl")}},
		{name: "empty trace", args: []string{empty}},
		{name: "malformed line", stdin: "not json\n"},
		{name: "two files", args: []string{good, good}},
		{name: "n without pd", args: []string{"-n", "4", good}},
		{name: "bad flag", args: []string{"-garbage"}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tt.args, strings.NewReader(tt.stdin), &out); err == nil {
				t.Errorf("args %v: expected error", tt.args)
			}
		})
	}
}
