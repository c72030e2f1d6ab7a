package main

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/capserver"
	"repro/internal/cluster"
)

// TestWatchOnce renders one page against a real single-member cluster
// and checks the deterministic parts of the layout.
func TestWatchOnce(t *testing.T) {
	tb, err := cluster.StartTestbed([]string{"solo"}, func(string, int) cluster.ProcConfig {
		return cluster.ProcConfig{Server: capserver.Config{Workers: 2, QueueDepth: 16, SessionSweep: -1}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	base := tb.URL("solo")

	if resp, err := http.Get(base + "/v1/bounds?n=4&pd=0.2&pi=0.1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	tb.Proc("solo").Server.TickHealth()

	var b strings.Builder
	if err := run([]string{"-target", base, "-once"}, &b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		"verdict=ok firing=0 pending=0",
		"solo",
		"bounds 1 ", // the route's request count
		"cluster totals: degraded=0 forward=0 ",
		" owned_local=1 ",
		"alerts by rule:",
		"queue-rejects",
		"degraded-routing",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	// A second render of a quiesced cluster is byte-identical.
	var b2 strings.Builder
	if err := run([]string{"-target", base, "-once"}, &b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != page {
		t.Errorf("quiesced pages differ:\n--- a\n%s\n--- b\n%s", page, b2.String())
	}
}

// TestWatchFlagValidation: a page budget must be non-negative, and
// repainting needs a positive interval, because every poll fans out to
// each member. Bad flags fail before any poll; with good ones the only
// failure is the poll of the dead target.
func TestWatchFlagValidation(t *testing.T) {
	dead := "http://127.0.0.1:1"
	for _, tc := range []struct {
		args []string
		flag string // the rejected flag; "" means the flags are fine
	}{
		{[]string{"-count", "-1"}, "-count"},
		{[]string{"-interval", "0"}, "-interval"},
		{[]string{"-interval", "-1s", "-count", "2"}, "-interval"},
		{[]string{"-interval", "0", "-once"}, ""},
		{[]string{"-interval", "0", "-count", "1"}, ""},
	} {
		var b strings.Builder
		err := run(append([]string{"-target", dead}, tc.args...), &b)
		if err == nil {
			t.Errorf("%v: accepted against a dead target", tc.args)
			continue
		}
		switch {
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("%v: error %q, want it to name %s", tc.args, err, tc.flag)
		case tc.flag == "" && strings.HasPrefix(err.Error(), "-"):
			t.Errorf("%v: flags rejected (%v), want only the poll to fail", tc.args, err)
		}
		if b.Len() != 0 {
			t.Errorf("%v: rendered %q", tc.args, b.String())
		}
	}
}

// TestHarnessSmall runs the lifecycle harness under -assert: the
// report's lifecycle check, then the CLI's own rerun at -jobs 1, whose
// timeline must equal the -jobs 2 timeline byte for byte.
func TestHarnessSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness in -short")
	}
	var b strings.Builder
	if err := run([]string{"-mode", "harness", "-jobs", "2", "-assert"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pending->firing", "firing->inactive", "capwatch-assert:"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("harness output missing %q:\n%s", want, b.String())
		}
	}
}

// TestHarnessFlagValidation checks that a send parallelism below 1 is
// refused before any member starts, not mapped to a default.
func TestHarnessFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "harness", "-jobs", "-2"},
		{"-mode", "harness", "-jobs", "0"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
		if b.Len() != 0 {
			t.Errorf("%v: rendered %q", args, b.String())
		}
	}
}
