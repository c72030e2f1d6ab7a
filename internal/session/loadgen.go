package session

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/channel"
	"repro/internal/faultinject"
	"repro/internal/rng"
)

// The one drift scenario every sessload run plays: each session
// streams cleanUses uses of its planted channel, and every
// driftEvery-th session (index % driftEvery == 0) then streams
// driftUses more through the faultinject stack driftSpec builds, so
// the run exercises both convergence (clean phase) and change-point
// detection (drift phase). Events go to the sink in batches of
// batchUses, and Assert requires every drift to be detected within
// maxDetectDelay uses of onset: inside the drift window, i.e. before
// an offline analysis of that window would even close.
const (
	cleanUses      = 1200
	driftUses      = 1200
	driftEvery     = 10
	driftSpec      = "drift=0.25"
	batchUses      = 400
	maxDetectDelay = driftUses
)

// LoadConfig tunes one sessload run: Sessions independent simulated
// channels, each with planted (Pd, Pi, Ps) drawn from seeded ranges,
// streamed through the session layer in the fixed drift scenario.
type LoadConfig struct {
	// Sessions is the number of concurrent simulated sessions
	// (default 1000; make bench-sessions uses 10^5).
	Sessions int
	// Seed drives every random choice; a fixed seed makes the whole
	// run byte-identical at any Jobs count.
	Seed uint64
	// Jobs is the worker count (0 selects GOMAXPROCS; Run refuses a
	// negative count). Sessions are independent, so concurrency never
	// changes results, only wall time.
	Jobs int
	// Ingest overrides the sink. The default sink is a Store that Run
	// builds.
	Ingest func(id string, events []Event) (Snapshot, error)
}

// withDefaults fills unset fields.
func (c LoadConfig) withDefaults() LoadConfig {
	if c.Sessions == 0 {
		c.Sessions = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Jobs == 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	return c
}

// SessionID names session i of a run. The seed is baked in so runs
// with different seeds never collide in a shared store.
func SessionID(seed uint64, i int) string {
	return fmt.Sprintf("sess-%d-%06d", seed, i)
}

// Outcome is one session's result.
type Outcome struct {
	Index   int
	ID      string
	Planted channel.Params
	Drift   bool
	// Events is the number of events fed.
	Events int64
	// Converged reports the clean-phase estimate containing the
	// planted parameters (joint Wilson 95% membership).
	Converged bool
	// CleanDrifts counts change points fired during the clean phase —
	// false alarms, the planted parameters do not move there.
	CleanDrifts int64
	// Detected/Delay report drift-phase change-point detection and its
	// delay in uses from drift onset (drift sessions only).
	Detected bool
	Delay    int64
	// Status is the final session status.
	Status Status
	// Err is a non-empty description when the session failed outright.
	Err string
}

// Report aggregates a run.
type Report struct {
	Seed                    uint64
	Sessions, DriftSessions int
	EventsTotal             int64
	// Converged counts sessions whose clean-phase estimate contained
	// the planted parameters.
	Converged int
	// Detected/Missed partition drift sessions by drift-phase
	// change-point detection; MaxDelay/MeanDelay summarize detection
	// delay in uses over detected sessions.
	Detected, Missed int
	MaxDelay         int64
	MeanDelay        float64
	// FalsePositives counts sessions with clean-phase change points.
	FalsePositives int
	// Errors counts failed sessions; Failures lists the first few,
	// sorted by session index.
	Errors   int
	Failures []string
}

// Run executes the load. Results are deterministic for a fixed
// (Seed, Sessions) pair regardless of Jobs: every session derives its
// own rng streams from (Seed, index) and outcomes aggregate in index
// order.
func Run(cfg LoadConfig) (*Report, error) {
	if cfg.Sessions < 0 {
		return nil, fmt.Errorf("session: negative session count %d", cfg.Sessions)
	}
	if cfg.Jobs < 0 {
		return nil, fmt.Errorf("session: negative job count %d", cfg.Jobs)
	}
	cfg = cfg.withDefaults()
	spec, err := faultinject.ParseSpec(driftSpec)
	if err != nil {
		return nil, err
	}
	if cfg.Ingest == nil {
		store, err := NewStore(StoreConfig{
			MaxSessions: cfg.Sessions + 1,
		})
		if err != nil {
			return nil, err
		}
		cfg.Ingest = func(id string, events []Event) (Snapshot, error) {
			_, snap, err := store.IngestEvents(id, events)
			return snap, err
		}
	}
	outcomes := make([]Outcome, cfg.Sessions)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = runSession(cfg, spec, i)
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return buildReport(cfg, outcomes), nil
}

// runSession simulates one session end to end.
func runSession(cfg LoadConfig, spec faultinject.Spec, i int) Outcome {
	out := Outcome{Index: i, ID: SessionID(cfg.Seed, i)}
	out.Drift = i%driftEvery == 0
	// The session's master stream: splitmix64 of (Seed, index) seeds a
	// xoshiro stream, split into independent param/symbol/fault
	// sources. Nothing here touches global state, so sessions are
	// order- and concurrency-independent.
	src := rng.NewStream(cfg.Seed, uint64(i))
	out.Planted = plantParams(src)
	chSrc, symSrc, faultSrc := src.Split(), src.Split(), src.Split()
	ch, err := channel.NewDeletionInsertion(out.Planted, chSrc)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	f := &feeder{ch: ch, symSrc: symSrc}

	// Clean phase: feed, then check convergence to the planted truth.
	snap, err := f.feed(cfg.Ingest, out.ID, cleanUses, nil)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Events = f.use
	out.Converged = snap.Estimate.Contains(out.Planted.Pd, out.Planted.Pi, out.Planted.Ps)
	out.CleanDrifts = snap.Drifts
	out.Status = snap.Status
	if !out.Drift {
		return out
	}

	// Drift phase: wrap the same channel in the fault stack and watch
	// for the change point. onDetect sees every post-batch snapshot, so
	// the recorded delay is the detector's actual firing use, not a
	// batch boundary.
	stack, err := spec.Build(ch, N, faultSrc)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	f.ch = stack
	f.injected = stack.Injected
	driftStart := f.use
	final, err := f.feed(cfg.Ingest, out.ID, driftUses, func(s Snapshot) {
		if !out.Detected && s.Drifts > out.CleanDrifts {
			out.Detected = true
			out.Delay = s.LastChangeUse - driftStart
		}
	})
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Events = f.use
	out.Status = final.Status
	return out
}

// plantParams draws a session's true channel parameters from ranges
// that keep every rate estimable within a ~10^3-use clean phase while
// spanning the paper's regime of interest.
func plantParams(src *rng.Source) channel.Params {
	in := func(lo, hi float64) float64 { return lo + (hi-lo)*src.Float64() }
	return channel.Params{
		N:  N,
		Pd: in(0.02, 0.12),
		Pi: in(0.02, 0.10),
		Ps: in(0.01, 0.08),
	}
}

// feeder drives one simulated channel and streams its events in
// batches.
type feeder struct {
	ch         channel.UseChannel
	injected   func() int64
	lastInj    int64
	symSrc     *rng.Source
	queued     uint32
	haveQueued bool
	use        int64
	buf        []Event
}

// next generates one event.
func (f *feeder) next() Event {
	if !f.haveQueued {
		f.queued = f.symSrc.Symbol(N)
		f.haveQueued = true
	}
	u := f.ch.Use(f.queued)
	f.use++
	ev := Event{Use: f.use, Kind: u.Kind}
	switch u.Kind {
	case channel.EventTransmit, channel.EventSubstitute:
		ev.Sent, ev.Received = f.queued, u.Delivered
	case channel.EventDelete:
		ev.Sent = f.queued
	case channel.EventInsert:
		ev.Received = u.Delivered
	}
	if u.Consumed {
		f.haveQueued = false
	}
	if f.injected != nil {
		if cur := f.injected(); cur != f.lastInj {
			ev.Injected = true
			f.lastInj = cur
		}
	}
	return ev
}

// feed streams uses more events in batchUses-sized flushes, invoking
// onFlush (when non-nil) with each post-ingest snapshot, and returns
// the final one.
func (f *feeder) feed(ingest func(string, []Event) (Snapshot, error), id string, uses int, onFlush func(Snapshot)) (Snapshot, error) {
	if cap(f.buf) == 0 {
		f.buf = make([]Event, 0, batchUses)
	}
	var snap Snapshot
	for done := 0; done < uses; {
		f.buf = f.buf[:0]
		for len(f.buf) < batchUses && done < uses {
			f.buf = append(f.buf, f.next())
			done++
		}
		var err error
		if snap, err = ingest(id, f.buf); err != nil {
			return Snapshot{}, err
		}
		if onFlush != nil {
			onFlush(snap)
		}
	}
	return snap, nil
}

// buildReport aggregates outcomes in index order.
func buildReport(cfg LoadConfig, outcomes []Outcome) *Report {
	r := &Report{Seed: cfg.Seed, Sessions: cfg.Sessions}
	var delaySum int64
	for i := range outcomes {
		o := &outcomes[i]
		r.EventsTotal += o.Events
		if o.Err != "" {
			r.Errors++
			if len(r.Failures) < 10 {
				r.Failures = append(r.Failures, fmt.Sprintf("session %d (%s): %s", o.Index, o.ID, o.Err))
			}
			continue
		}
		if o.Converged {
			r.Converged++
		}
		if o.CleanDrifts > 0 {
			r.FalsePositives++
		}
		if o.Drift {
			r.DriftSessions++
			if o.Detected {
				r.Detected++
				delaySum += o.Delay
				if o.Delay > r.MaxDelay {
					r.MaxDelay = o.Delay
				}
			} else {
				r.Missed++
			}
		}
	}
	if r.Detected > 0 {
		r.MeanDelay = float64(delaySum) / float64(r.Detected)
	}
	sort.Strings(r.Failures)
	return r
}

// Format writes the deterministic run report: every line is a pure
// function of the seed and session count, so diffing two runs is the
// byte-identity gate. Wall-clock figures deliberately do not appear
// here; cmd/sessload prints those separately as "timing:" lines.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "sessload seed=%d sessions=%d drift=%d clean_uses=%d drift_uses=%d inject=%q\n",
		r.Seed, r.Sessions, r.DriftSessions, cleanUses, driftUses, driftSpec)
	fmt.Fprintf(w, "events: %d\n", r.EventsTotal)
	fmt.Fprintf(w, "converged: %d/%d (%.4f)\n", r.Converged, r.Sessions, ratio(r.Converged, r.Sessions))
	fmt.Fprintf(w, "detected: %d/%d missed: %d max_delay: %d mean_delay: %.1f\n",
		r.Detected, r.DriftSessions, r.Missed, r.MaxDelay, r.MeanDelay)
	fmt.Fprintf(w, "false_positives: %d/%d (%.4f)\n", r.FalsePositives, r.Sessions, ratio(r.FalsePositives, r.Sessions))
	fmt.Fprintf(w, "errors: %d\n", r.Errors)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  fail: %s\n", f)
	}
}

// ratio divides counts, mapping 0/0 to 0.
func ratio(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// Assert applies the smoke-gate acceptance bounds: no failed sessions,
// ≥80% joint-CI convergence (three simultaneous 95% intervals give
// ~86% expected joint coverage), at least one drift session, injected
// drift detected within maxDetectDelay uses of onset, and clean-phase
// false alarms under 2%.
// Misses get a 0.1% budget, symmetric with the false-alarm budget: the
// drift layer is a reflected random walk, and across 10^4+ sessions a
// handful of walks wander back to baseline before the detector can
// tell them from noise. At smoke scale (tens of drift sessions) the
// budget truncates to zero, so small runs still demand every drift be
// caught.
func (r *Report) Assert() error {
	if r.Errors > 0 {
		return fmt.Errorf("sessload: %d sessions failed (first: %s)", r.Errors, r.Failures[0])
	}
	if got := ratio(r.Converged, r.Sessions); got < 0.80 {
		return fmt.Errorf("sessload: converged fraction %.4f < 0.80", got)
	}
	if r.DriftSessions == 0 {
		return fmt.Errorf("sessload: run had no drift sessions, detection unexercised")
	}
	if budget := r.DriftSessions / 1000; r.Missed > budget {
		return fmt.Errorf("sessload: %d/%d drift sessions undetected (budget %d)",
			r.Missed, r.DriftSessions, budget)
	}
	if r.MaxDelay > maxDetectDelay {
		return fmt.Errorf("sessload: max detection delay %d uses exceeds bound %d", r.MaxDelay, maxDetectDelay)
	}
	if got := ratio(r.FalsePositives, r.Sessions); got > 0.02 {
		return fmt.Errorf("sessload: false-positive fraction %.4f > 0.02", got)
	}
	return nil
}
