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
	f, err := os.CreateTemp(t.TempDir(), "capload-out")
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

func TestSelfhostSmoke(t *testing.T) {
	out, err := captureOut(t, func(f *os.File) error {
		return run([]string{"-selfhost", "-mode", "smoke"}, f)
	})
	if err != nil {
		t.Fatalf("smoke: %v\n%s", err, out)
	}
	if !strings.Contains(out, "smoke: every endpoint returned 200") {
		t.Errorf("smoke output missing verdict:\n%s", out)
	}
}

func TestSelfhostLoad(t *testing.T) {
	out, err := captureOut(t, func(f *os.File) error {
		return run([]string{"-selfhost", "-mode", "load", "-requests", "40", "-c", "4", "-unique", "4"}, f)
	})
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	for _, want := range []string{"requests:", "(0 transport errors)", "status 200:   40", "cache hit rate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("load report missing %q:\n%s", want, out)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                 // neither -addr nor -selfhost
		{"-selfhost", "-addr", "http://x"}, // mutually exclusive
		{"-selfhost", "-mode", "warp"},
		{"-selfhost", "-mode", "load", "-mix", "bogus"},
		{"-selfhost", "-mode", "load", "-mix", "teleport=1"},
		// Negative load sizes are refused, not mapped to defaults.
		{"-selfhost", "-mode", "load", "-requests", "-2"},
		{"-selfhost", "-mode", "load", "-c", "-2"},
		{"-selfhost", "-mode", "load", "-unique", "-2"},
		{"-selfhost", "-mode", "load", "-exact-n", "-2"},
		// So are negative selfhost server sizes.
		{"-selfhost", "-mode", "load", "-workers", "-2"},
		{"-selfhost", "-mode", "load", "-queue", "-2"},
		{"-selfhost", "-mode", "load", "-cache", "-2"},
	}
	for _, args := range cases {
		if _, err := captureOut(t, func(f *os.File) error { return run(args, f) }); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("bounds=0.5, simulate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix["bounds"] != 0.5 || mix["simulate"] != 0.5 {
		t.Errorf("mix = %v", mix)
	}
	for _, bad := range []string{"", "bounds", "bounds=-1", "bounds=x", "bounds=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestClusterModeKillRestart is capload's one cluster run, with the
// per-member trace files written out for capstat (whose
// TestRunReconcilesCleanTrace pins that CLI's text).
func TestClusterModeKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	dir := t.TempDir()
	out, err := captureOut(t, func(f *os.File) error {
		return run([]string{"-mode", "cluster", "-assert", "-trace-dir", dir}, f)
	})
	if err != nil {
		t.Fatalf("cluster run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"killed n2", "restarted n2", "0 mismatches",
		"convergence:", "trace: wrote 3 per-node files", "cluster-assert:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestClusterFlagValidation: cluster mode runs one fixed scenario, so
// a load-mode size given with it is refused by name instead of being
// silently ignored.
func TestClusterFlagValidation(t *testing.T) {
	args := []string{"-mode", "cluster", "-requests", "90", "-assert"}
	out, err := captureOut(t, func(f *os.File) error { return run(args, f) })
	if err == nil || !strings.Contains(err.Error(), "-requests") {
		t.Errorf("%v: error %v, want one naming -requests", args, err)
	}
	if out != "" {
		t.Errorf("%v: printed %q before refusing", args, out)
	}
}
