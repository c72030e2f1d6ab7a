package session

import (
	"bytes"
	"testing"
)

// smokeLoad is the small-but-meaningful configuration the package
// tests share: enough sessions and uses for the convergence and
// detection assertions to bite, small enough for CI.
func smokeLoad() LoadConfig {
	return LoadConfig{Sessions: 400, Seed: 1}
}

func TestLoadRunAsserts(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke load")
	}
	rep, err := Run(smokeLoad())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := rep.Assert(); err != nil {
		var buf bytes.Buffer
		rep.Format(&buf)
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if rep.DriftSessions == 0 || rep.Detected != rep.DriftSessions {
		t.Fatalf("drift detection incomplete: %d/%d", rep.Detected, rep.DriftSessions)
	}
	// The acceptance criterion: detection lands inside the drift
	// window, i.e. before an offline analysis of that window could even
	// begin.
	if rep.MaxDelay >= driftUses {
		t.Fatalf("max detection delay %d not inside the %d-use drift window", rep.MaxDelay, driftUses)
	}
}

// TestLoadRunJobsByteIdentical is the determinism gate: the formatted
// report is byte-identical at any worker count under a fixed seed.
func TestLoadRunJobsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated smoke loads")
	}
	var want []byte
	for _, jobs := range []int{1, 4, 13} {
		cfg := smokeLoad()
		cfg.Sessions = 120
		cfg.Jobs = jobs
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		rep.Format(&buf)
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("jobs=%d output diverges:\n%s\n--- vs jobs=1 ---\n%s", jobs, buf.String(), want)
		}
	}
}

func TestLoadRunSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated smoke loads")
	}
	cfg := smokeLoad()
	cfg.Sessions = 60
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	a.Format(&ba)
	b.Format(&bb)
	if bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestLoadRunHonestErrors pins that sink failures surface as session
// errors, not silent gaps.
func TestLoadRunHonestErrors(t *testing.T) {
	cfg := smokeLoad()
	cfg.Sessions = 10
	cfg.Ingest = func(id string, events []Event) (Snapshot, error) {
		return Snapshot{}, ErrTooManySessions
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 10 {
		t.Fatalf("errors %d, want 10", rep.Errors)
	}
	if rep.Assert() == nil {
		t.Fatal("Assert passed a run where every session failed")
	}
}
