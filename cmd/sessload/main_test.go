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

func TestRunModeAssert(t *testing.T) {
	args := []string{"-mode", "run", "-sessions", "200", "-seed", "7", "-assert"}
	out, err := captureOut(t, func(f *os.File) error { return run(args, f) })
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"sessload seed=7 sessions=200 drift=20",
		"converged:", "detected: 20/20 missed: 0",
		"timing: wall=", "sessload-assert:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
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
		{"-mode", "run", "-sessions", "20", "-inject", "bogus=spec"},
		{"-mode", "run", "-sessions", "-3"},
		{"-mode", "run", "-sessions", "20", "-batch", "-1"},
		// Cluster mode runs one fixed scenario and reads no size.
		{"-mode", "cluster", "-sessions", "48"},
		// No session drifts, so the detection bound would hold vacuously.
		{"-mode", "run", "-sessions", "200", "-seed", "7", "-drift-every", "-1", "-assert"},
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
