package session

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// feedRates drives a detector with n synthetic uses at the given event
// rates, starting at use index start+1, and returns the final index.
func feedRates(d *Detector, src *rng.Source, start int64, n int, pd, pi, ps float64) int64 {
	use := start
	for i := 0; i < n; i++ {
		use++
		u := src.Float64()
		switch {
		case u < pd:
			d.Observe(channel.EventDelete, use)
		case u < pd+pi:
			d.Observe(channel.EventInsert, use)
		default:
			if src.Bool(ps) {
				d.Observe(channel.EventSubstitute, use)
			} else {
				d.Observe(channel.EventTransmit, use)
			}
		}
	}
	return use
}

func newTestDetector(t *testing.T) *Detector {
	t.Helper()
	return New("det").Detector()
}

// TestDetectorLifecycle pins the warmup -> ok -> resync -> ok status
// cycle around an injected deletion-rate shift.
func TestDetectorLifecycle(t *testing.T) {
	d := newTestDetector(t)
	src := rng.New(42)
	if d.Status() != StatusWarmup {
		t.Fatalf("initial status %q, want warmup", d.Status())
	}
	use := feedRates(d, src, 0, 2000, 0.05, 0.05, 0.03)
	if d.Status() != StatusOK {
		t.Fatalf("post-baseline status %q, want ok", d.Status())
	}
	if d.Drifts() != 0 {
		t.Fatalf("%d drifts on a stationary stream", d.Drifts())
	}
	// Shift Pd 0.05 -> 0.30: the pd CUSUM must fire well inside the
	// shifted window.
	use = feedRates(d, src, use, 2000, 0.30, 0.05, 0.03)
	if d.Drifts() == 0 {
		t.Fatal("deletion-rate shift not detected")
	}
	first := d.LastChangeUse()
	if first <= 2000 || first > 2600 {
		t.Fatalf("change point at use %d, want shortly after onset at 2000", first)
	}
	// Keep feeding the new regime: the detector re-baselines and
	// recovers to ok.
	feedRates(d, src, use, 3000, 0.30, 0.05, 0.03)
	if d.Status() != StatusOK {
		t.Fatalf("post-recovery status %q, want ok", d.Status())
	}
	if d.Recoveries() == 0 {
		t.Fatal("no recovery recorded")
	}
}

// TestDetectorQuietOnStationary bounds false alarms: a long stationary
// stream must not fire.
func TestDetectorQuietOnStationary(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := newTestDetector(t)
		feedRates(d, rng.New(seed), 0, 20000, 0.08, 0.06, 0.04)
		if n := d.Drifts(); n != 0 {
			t.Fatalf("seed %d: %d false change points on a stationary stream", seed, n)
		}
	}
}

// TestDetectorCatchesEachStream verifies all three monitored rates
// trigger independently, including downward shifts.
func TestDetectorCatchesEachStream(t *testing.T) {
	cases := []struct {
		name           string
		pd, pi, ps     float64 // post-shift rates; baseline is 0.08/0.06/0.04
		wantWithinUses int64
	}{
		{"pd up", 0.35, 0.06, 0.04, 600},
		{"pi up", 0.08, 0.30, 0.04, 600},
		{"ps up", 0.08, 0.06, 0.35, 800},
		{"pd down", 0.001, 0.06, 0.04, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDetector(t)
			src := rng.New(7)
			use := feedRates(d, src, 0, 3000, 0.08, 0.06, 0.04)
			if d.Drifts() != 0 {
				t.Fatalf("fired during baseline")
			}
			feedRates(d, src, use, 4000, tc.pd, tc.pi, tc.ps)
			if d.Drifts() == 0 {
				t.Fatal("shift not detected")
			}
			if delay := d.LastChangeUse() - use; delay > tc.wantWithinUses {
				t.Fatalf("first detection %d uses after onset, want <= %d", delay, tc.wantWithinUses)
			}
		})
	}
	// A warmup with no insertions puts the pi baseline on the minP
	// clamp. From there each insertion adds log(p1/nullUp) ≈ 2.93 nats
	// to the up-CUSUM, so the third consecutive insertion is the first
	// to cross the threshold of 8 (with a clamp of 2e-3, three add up
	// to only 7.6).
	t.Run("pi up from clamp", func(t *testing.T) {
		d := newTestDetector(t)
		use := int64(0)
		for ; use < warmup; use++ {
			d.Observe(channel.EventTransmit, use+1)
		}
		if d.Status() != StatusOK {
			t.Fatalf("status %q after an all-transmit warmup, want ok", d.Status())
		}
		for i := 1; i <= 3; i++ {
			use++
			d.Observe(channel.EventInsert, use)
			if fired := d.Drifts() > 0; fired != (i == 3) {
				t.Fatalf("insertion %d of a burst: fired=%v, want fired only at the third", i, fired)
			}
		}
		if d.LastChangeUse() != warmup+3 {
			t.Fatalf("change point at use %d, want %d", d.LastChangeUse(), warmup+3)
		}
	})
}

// TestDetectorAllDeleteStream pins the ps-stream exemption: a stream
// with no transmission events must still arm and reach ok on the
// per-use streams instead of waiting forever for ps warmup.
func TestDetectorAllDeleteStream(t *testing.T) {
	d := newTestDetector(t)
	for use := int64(1); use <= 2000; use++ {
		d.Observe(channel.EventDelete, use)
	}
	if d.Status() != StatusOK {
		t.Fatalf("all-delete stream status %q, want ok", d.Status())
	}
}
