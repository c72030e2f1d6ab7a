package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReconcilesCleanTrace(t *testing.T) {
	dir := t.TempDir()
	n1 := writeFile(t, dir, "n1.jsonl", strings.Join([]string{
		`{"t":"rspan","id":"r1","node":"n1","path":"owned","status":200,"serve_us":120}`,
		`{"t":"rspan","id":"r2","node":"n1","path":"forward","peer":"n2","winner":"n2","status":200}`,
	}, "\n")+"\n")
	n2 := writeFile(t, dir, "n2.jsonl",
		`{"t":"rspan","id":"r2","node":"n2","path":"remote","peer":"n1","status":200,"serve_us":300}`+"\n")
	counters, err := json.Marshal(map[string]cluster.NodeCounters{
		"n1": {"cluster_owned_local_total": 1, "cluster_forward_total": 1},
		"n2": {"cluster_remote_serve_total": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cpath := writeFile(t, dir, "counters.json", string(counters))

	var out bytes.Buffer
	if err := run([]string{"-counters", cpath, "-top", "2", n1, n2}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"capstat: 2 requests, 3 spans",
		"invariants: all chains terminate at exactly one serving node",
		"accounting: trace reconciles exactly with routing counters",
		"r2 n1->n2 forward",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFailsOnViolationOrMismatch(t *testing.T) {
	dir := t.TempDir()
	// A routing loop: the origin recorded a remote span for itself.
	loop := writeFile(t, dir, "loop.jsonl", strings.Join([]string{
		`{"t":"rspan","id":"r1","node":"n1","path":"forward","peer":"n2","winner":"n2"}`,
		`{"t":"rspan","id":"r1","node":"n1","path":"remote","peer":"n1"}`,
	}, "\n")+"\n")
	var out bytes.Buffer
	err := run([]string{loop}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 violations") {
		t.Fatalf("loop trace: err=%v", err)
	}
	if !strings.Contains(out.String(), "VIOLATION: ") {
		t.Fatalf("violation not printed:\n%s", out.String())
	}

	// A clean trace against drifted counters.
	clean := writeFile(t, dir, "clean.jsonl",
		`{"t":"rspan","id":"r1","node":"n1","path":"owned"}`+"\n")
	cpath := writeFile(t, dir, "counters.json", `{"n1":{"cluster_owned_local_total":2}}`)
	out.Reset()
	err = run([]string{"-counters", cpath, clean}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 counter mismatches") {
		t.Fatalf("drifted counters: err=%v", err)
	}
	if !strings.Contains(out.String(), "MISMATCH: ") {
		t.Fatalf("mismatch not printed:\n%s", out.String())
	}

	// A counters file keyed by the old field names fails to decode
	// instead of reconciling against zeros.
	old := writeFile(t, dir, "old.json", `{"n1":{"name":"n1","owned_local":1}}`)
	out.Reset()
	if err := run([]string{"-counters", old, clean}, &out); err == nil || !strings.Contains(err.Error(), "old.json") {
		t.Fatalf("old-format counters: err=%v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no arguments accepted")
	}
}
