package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// captureFD runs fn with *fd (os.Stdout or os.Stderr) redirected and
// returns what it wrote. The pipe is drained concurrently so large
// tables cannot block the writer.
func captureFD(t *testing.T, fd **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *fd
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*fd = w
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	runErr := fn()
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	*fd = old
	return <-done, runErr
}

// capture redirects os.Stdout, which is where the tables go.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return captureFD(t, &os.Stdout, fn)
}

// fastArgs shrinks the workloads for test speed.
func fastArgs(extra ...string) []string {
	args := []string{"-symbols", "3000", "-coded", "60", "-quanta", "20000"}
	return append(args, extra...)
}

// experimentsDigests records, per GOARCH, the md5 of `experiments
// -seed 1 -summary=false` stdout: every E1–E13 table at the default
// sizes. E5 runs the converted-channel Blahut–Arimoto at tol 1e-11, so
// the digest pins that kernel's printed bits too.
var experimentsDigests = map[string]string{
	"amd64": "3eb179e4ca8adf278c9bf3c2209ed2a6",
}

// TestExperimentsDigest pins the bytes of the paper's tables. A change
// to any printed digit fails it; a deliberate one re-records the
// digest and shows the table diff.
func TestExperimentsDigest(t *testing.T) {
	want, ok := experimentsDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no digest recorded for GOARCH=%s: the bytes are amd64-only by construction "+
			"(gc fuses x*y+z into one rounding on arm64, in core.ComputeBounds among others, "+
			"and math.Log is assembly only on amd64)", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("the race detector cannot change the printed bytes, and the batch takes about 10 s under it")
	}
	out, err := capture(t, func() error { return run([]string{"-seed", "1", "-summary=false"}) })
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("experiments -seed 1 stdout md5 %s on %s, recorded %s", got, runtime.GOARCH, want)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, func() error { return run(fastArgs("-only", "E4")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E4 — Equations 6-7") {
		t.Fatalf("missing E4 table:\n%s", out)
	}
	if strings.Contains(out, "E1 —") {
		t.Fatal("-only leaked other experiments")
	}
}

func TestRunAblationOnly(t *testing.T) {
	out, err := capture(t, func() error { return run(fastArgs("-only", "A3")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A3 — Ablation") {
		t.Fatalf("missing A3 table:\n%s", out)
	}
}

// TestRunSummaryOnStderr pins the stream split: timing summary on
// stderr only, and suppressible with -summary=false.
func TestRunSummaryOnStderr(t *testing.T) {
	var stdout string
	stderr, err := captureFD(t, &os.Stderr, func() error {
		var inner error
		stdout, inner = capture(t, func() error { return run(fastArgs("-only", "E4")) })
		return inner
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "uses/sec") {
		t.Errorf("summary table missing from stderr:\n%s", stderr)
	}
	if strings.Contains(stdout, "uses/sec") {
		t.Error("summary table leaked onto stdout")
	}
	stderr, err = captureFD(t, &os.Stderr, func() error {
		_, inner := capture(t, func() error { return run(fastArgs("-only", "E4", "-summary=false")) })
		return inner
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr, "uses/sec") {
		t.Error("-summary=false still printed the summary")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := capture(t, func() error { return run(fastArgs("-only", "E99")) }); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestRunUnknownExperimentListsBatch checks that the unknown-id error
// lists the IDs of the batch actually assembled: every primary
// experiment through E13, and the ablations only when they are in it.
func TestRunUnknownExperimentListsBatch(t *testing.T) {
	for _, tt := range []struct {
		args      []string
		ablations bool
	}{
		{[]string{"-only", "E99"}, false},
		{[]string{"-only", "E99", "-ablations"}, true},
		{[]string{"-only", "A9"}, true},
	} {
		_, err := capture(t, func() error { return run(fastArgs(tt.args...)) })
		if err == nil {
			t.Fatalf("%v: expected error for unknown experiment id", tt.args)
		}
		msg := err.Error()
		if !strings.Contains(msg, "E13") {
			t.Errorf("%v: error %q does not name E13", tt.args, msg)
		}
		if got := strings.Contains(msg, "A5"); got != tt.ablations {
			t.Errorf("%v: error %q names A5 = %v, want %v", tt.args, msg, got, tt.ablations)
		}
	}
}

func TestRunFlagError(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-garbage"}) }); err == nil {
		t.Fatal("expected flag parse error")
	}
}

// TestRunObservabilityOutputs checks the -trace/-metrics/-pprof
// surface: the JSONL trace is written and analyzable, the metrics
// exposition carries the per-experiment runner series, and both
// profile files exist and are non-empty.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/run.jsonl"
	metrics := dir + "/run.prom"
	_, err := capture(t, func() error {
		return run(fastArgs("-only", "E5,E13", "-trace", trace, "-metrics", metrics, "-pprof", dir))
	})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sum, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Uses() == 0 || sum.Spans["ba"] == nil {
		t.Errorf("trace missing channel uses or ba spans: %+v", sum)
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`experiments_runs_total{id="E5"} 1`, `experiments_uses_total{id="E13"}`} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, prom)
		}
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(dir + "/" + name)
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

// TestRunTraceDeterministicAcrossJobs checks the recorded trace file
// is byte-identical between -jobs 1 and -jobs 8: tracing must not
// leak scheduling order into the reproducible outputs.
func TestRunTraceDeterministicAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	runTrace := func(jobs, name string) []byte {
		path := dir + "/" + name
		if _, err := capture(t, func() error {
			return run(fastArgs("-only", "E13", "-jobs", jobs, "-trace", path))
		}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := runTrace("1", "serial.jsonl")
	parallel := runTrace("8", "parallel.jsonl")
	if !bytes.Equal(serial, parallel) {
		t.Fatal("-jobs 8 trace differs from -jobs 1 trace")
	}
}
