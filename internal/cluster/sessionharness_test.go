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
	if rep.Killed != "n2" || !rep.Restarted {
		t.Fatalf("fault schedule: killed=%q restarted=%v", rep.Killed, rep.Restarted)
	}
	// The outage must have been visible: batches for sessions owned by
	// the dead node were refused, then drained to completion.
	if rep.Unavailable == 0 {
		t.Fatal("no batch was ever refused while the owner was down")
	}
	if rep.Applied == 0 {
		t.Fatal("no events applied")
	}
}

func TestSessionHarnessNoFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node session harness")
	}
	rep, err := RunSessionHarness(SessionHarnessOptions{
		Sessions:  24,
		Rounds:    4,
		KillAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed != "" || rep.Unavailable != 0 || rep.Incomplete != 0 || rep.ReadMismatches != 0 {
		var buf strings.Builder
		rep.Format(&buf)
		t.Fatalf("clean run not clean:\n%s", buf.String())
	}
	// Every event applied exactly once.
	if rep.Applied != int64(24*4*rep.EventsPerBatch) {
		t.Fatalf("applied %d, want %d", rep.Applied, 24*4*rep.EventsPerBatch)
	}
	// With 24 sessions across 3 nodes, both ownership paths engage.
	tot := rep.Totals()
	if tot["cluster_session_owned_total"] == 0 || tot["cluster_session_forward_total"] == 0 {
		t.Fatalf("routing never exercised both paths: %+v", tot)
	}
}
