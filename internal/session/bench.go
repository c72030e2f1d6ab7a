package session

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// BenchSchema is BENCH_sessions.json's format tag. Bump on layout
// changes.
const BenchSchema = "capest/bench-sessions/v1"

// Trajectory is the BENCH_sessions.json document: one sessload run's
// configuration, throughput and estimation-quality outcome, written by
// `sessload -bench-out` and validated by `sessload -mode check` in the
// bench-smoke gate. Like BENCH_kernels.json it is a committed,
// machine-checkable record of where the subsystem's scale stands: the
// committed file must describe a passing 10^5+ session run.
type Trajectory struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`

	Seed          uint64 `json:"seed"`
	Sessions      int    `json:"sessions"`
	DriftSessions int    `json:"drift_sessions"`
	CleanUses     int    `json:"clean_uses"`
	DriftUses     int    `json:"drift_uses"`
	Inject        string `json:"inject"`
	Jobs          int    `json:"jobs"`

	EventsTotal    int64   `json:"events_total"`
	WallMS         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	SessionsPerSec float64 `json:"sessions_per_sec"`

	Converged      int     `json:"converged"`
	Detected       int     `json:"detected"`
	Missed         int     `json:"missed"`
	FalsePositives int     `json:"false_positives"`
	MaxDelay       int64   `json:"max_delay_uses"`
	MeanDelay      float64 `json:"mean_delay_uses"`
	Passed         bool    `json:"passed"`
}

// BuildTrajectory assembles the document from a finished run.
func BuildTrajectory(cfg LoadConfig, rep *Report, wall time.Duration) *Trajectory {
	cfg = cfg.withDefaults()
	t := &Trajectory{
		Schema:         BenchSchema,
		Go:             runtime.Version(),
		Seed:           rep.Seed,
		Sessions:       rep.Sessions,
		DriftSessions:  rep.DriftSessions,
		CleanUses:      rep.CleanUses,
		DriftUses:      rep.DriftUses,
		Inject:         rep.Inject,
		Jobs:           cfg.Jobs,
		EventsTotal:    rep.EventsTotal,
		WallMS:         float64(wall) / float64(time.Millisecond),
		Converged:      rep.Converged,
		Detected:       rep.Detected,
		Missed:         rep.Missed,
		FalsePositives: rep.FalsePositives,
		MaxDelay:       rep.MaxDelay,
		MeanDelay:      rep.MeanDelay,
		Passed:         rep.Assert() == nil,
	}
	if wall > 0 && rep.EventsTotal > 0 {
		secs := wall.Seconds()
		t.EventsPerSec = float64(rep.EventsTotal) / secs
		t.NsPerEvent = float64(wall.Nanoseconds()) / float64(rep.EventsTotal)
		t.SessionsPerSec = float64(rep.Sessions) / secs
	}
	return t
}

// WriteTrajectory writes the document as indented JSON.
func WriteTrajectory(path string, t *Trajectory) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CheckTrajectory validates a trajectory file: it must parse, carry
// the current schema tag, and record a passing run. minSessions
// guards scale: the committed BENCH_sessions.json is checked with
// 100000 (the 10^5-concurrent-sessions acceptance floor), smoke-run
// files with their own smaller size.
func CheckTrajectory(path string, minSessions int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var t Trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if t.Schema != BenchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, t.Schema, BenchSchema)
	}
	if t.Sessions < minSessions {
		return fmt.Errorf("%s: %d sessions below the %d floor", path, t.Sessions, minSessions)
	}
	if t.EventsTotal <= 0 {
		return fmt.Errorf("%s: no events recorded", path)
	}
	if t.EventsPerSec <= 0 || t.NsPerEvent <= 0 {
		return fmt.Errorf("%s: missing throughput figures", path)
	}
	if t.DriftSessions <= 0 {
		return fmt.Errorf("%s: run had no drift sessions, detection unexercised", path)
	}
	if t.Missed > t.DriftSessions/1000 {
		return fmt.Errorf("%s: records %d missed drift detections (budget %d)",
			path, t.Missed, t.DriftSessions/1000)
	}
	if !t.Passed {
		return fmt.Errorf("%s: records a failed sessload run", path)
	}
	return nil
}
