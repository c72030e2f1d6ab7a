package cluster

import (
	"strings"
	"testing"
)

func TestSessionHarnessKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node session fault harness")
	}
	rep, err := RunSessionHarness(SessionHarnessOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("session harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
}
