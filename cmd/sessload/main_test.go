package main

import (
	"os"
	"strings"
	"testing"
)

// captureOut runs fn with stdout-shaped output into a temp file and
// returns what was written.
func captureOut(t *testing.T, fn func(out *os.File) error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "sessload-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := fn(f)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestRunModeAssert is the session CI gate: the fixed drift scenario
// over 2000 sessions at seed 11 must pass -assert and print exactly
// this report. Changing the detector's warmup, delta, threshold or
// guard moves some line of it (minP's clamp is pinned by the detector
// tests instead).
func TestRunModeAssert(t *testing.T) {
	args := []string{"-mode", "run", "-sessions", "2000", "-seed", "11", "-assert"}
	out, err := captureOut(t, func(f *os.File) error { return run(args, f) })
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	report, rest, ok := strings.Cut(out, "timing: wall=")
	if !ok {
		t.Fatalf("no timing line:\n%s", out)
	}
	const want = `sessload seed=11 sessions=2000 drift=200 clean_uses=1200 drift_uses=1200 inject="drift=0.25"
events: 2640000
converged: 1713/2000 (0.8565)
detected: 200/200 missed: 0 max_delay: 887 mean_delay: 135.7
false_positives: 3/2000 (0.0015)
errors: 0
`
	if report != want {
		t.Errorf("report:\n%s\nwant:\n%s", report, want)
	}
	if !strings.Contains(rest, "\nsessload-assert: ") {
		t.Errorf("no sessload-assert line:\n%s", out)
	}
}

// TestRunModeDeterministic replays the same seed at different -jobs
// counts: the report (everything before the timing: line) must be
// byte-identical.
func TestRunModeDeterministic(t *testing.T) {
	report := func(jobs string) string {
		args := []string{"-mode", "run", "-sessions", "120", "-seed", "3", "-jobs", jobs}
		out, err := captureOut(t, func(f *os.File) error { return run(args, f) })
		if err != nil {
			t.Fatalf("jobs=%s: %v\n%s", jobs, err, out)
		}
		det, _, ok := strings.Cut(out, "timing:")
		if !ok {
			t.Fatalf("jobs=%s: no timing line:\n%s", jobs, out)
		}
		return det
	}
	if a, b := report("1"), report("8"); a != b {
		t.Errorf("report differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", a, b)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mode", "warp"},
		{"-mode", "run", "-sessions", "-3"},
		{"-mode", "run", "-jobs", "-3"},
		// Cluster mode runs one fixed scenario and reads no size.
		{"-mode", "cluster", "-sessions", "48"},
	}
	for _, args := range cases {
		if _, err := captureOut(t, func(f *os.File) error { return run(args, f) }); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestClusterModeKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node session fault harness")
	}
	out, err := captureOut(t, func(f *os.File) error {
		return run([]string{"-mode", "cluster", "-assert"}, f)
	})
	if err != nil {
		t.Fatalf("cluster run: %v\n%s", err, out)
	}
	for _, want := range []string{"killed n2", "restarted n2", "cluster-assert:", "sessions:   48 x 9 rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}
}
