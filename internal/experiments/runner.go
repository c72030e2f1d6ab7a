package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Experiment is one registered harness entry point with its metadata.
type Experiment struct {
	// ID is the experiment identifier printed in its table (E1..E13,
	// A1..A5).
	ID string
	// Index is the experiment's seed-stream index: the runner derives
	// the experiment's seed as rng.Stream(Config.Seed, Index), so every
	// experiment draws from its own stream regardless of how many
	// workers execute the batch or in which order. Indices must be
	// unique across every experiment that can run in one batch.
	Index uint64
	// Title is a short description for the summary table.
	Title string
	// Run produces the experiment's table.
	Run func(Config) (Table, error)
}

// Registry returns the thirteen primary experiments in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Index: 1, Title: "Theorem 1/4 upper bound vs erasure MI", Run: E1UpperBound},
		{ID: "E2", Index: 2, Title: "Theorem 3 feedback ARQ", Run: E2FeedbackARQ},
		{ID: "E3", Index: 3, Title: "Theorem 5 counter protocol", Run: E3CounterProtocol},
		{ID: "E4", Index: 4, Title: "eqs 6-7 asymptotic tightness", Run: E4Convergence},
		{ID: "E5", Index: 5, Title: "converted channel vs Blahut-Arimoto", Run: E5BlahutArimoto},
		{ID: "E6", Index: 6, Title: "no-sync coded communication", Run: E6NoSyncCoding},
		{ID: "E7", Index: 7, Title: "common events vs feedback", Run: E7CommonEvents},
		{ID: "E8", Index: 8, Title: "scheduler-induced non-synchrony", Run: E8Scheduler},
		{ID: "E9", Index: 9, Title: "MLS legal flow as feedback", Run: E9MLS},
		{ID: "E10", Index: 10, Title: "related-work baselines corrected", Run: E10Baselines},
		{ID: "E11", Index: 11, Title: "deletion-channel information rates", Run: E11DeletionRates},
		{ID: "E12", Index: 12, Title: "timing channel countermeasures", Run: E12TimingChannel},
		{ID: "E13", Index: 13, Title: "hostile regimes: supervised degradation", Run: E13HostileRegimes},
	}
}

// AblationRegistry returns the ablation studies A1..A5. Their
// seed-stream indices live in a disjoint block (101..) so an ablation
// never shares a stream with a primary experiment.
func AblationRegistry() []Experiment {
	return []Experiment{
		{ID: "A1", Index: 101, Title: "watermark drift window", Run: A1DriftWindow},
		{ID: "A2", Index: 102, Title: "RS outer redundancy", Run: A2OuterRedundancy},
		{ID: "A3", Index: 103, Title: "watermark sparse length", Run: A3SparseLength},
		{ID: "A4", Index: 104, Title: "bursty non-synchrony", Run: A4Burstiness},
		{ID: "A5", Index: 105, Title: "feedback latency overhead", Run: A5FeedbackDelay},
	}
}

// RunOptions configures a batch execution.
type RunOptions struct {
	// Jobs bounds how many experiments run concurrently. Zero or
	// negative selects GOMAXPROCS. Determinism does not depend on it:
	// the emitted tables are byte-identical for every value.
	Jobs int
	// Timeout bounds each experiment's wall time (0 = none). A timed
	// out experiment is reported as an error result; its goroutine is
	// abandoned (experiment entry points are not preemptible) but its
	// worker slot is released so the rest of the batch proceeds.
	Timeout time.Duration
	// Only restricts the batch to the listed experiment IDs (nil = all).
	// The batch preserves registry order regardless of the order here.
	Only []string
	// Trace, when non-nil, gives every experiment its own trace stream
	// named after its ID (overriding Config.Tracer for the batch). The
	// set concatenates streams in sorted-ID order, so the assembled
	// trace is byte-identical for every Jobs value and goroutine
	// schedule — the same property the tables have.
	Trace *obs.TraceSet
	// Metrics, when non-nil, records per-experiment runner metrics:
	// runs, errors, retries, simulated channel uses and wall-time
	// latency. Values involve wall clocks and are not reproducible;
	// only the exposition format is deterministic.
	Metrics *obs.Registry
}

// Result is one experiment's outcome with its runtime observability.
type Result struct {
	// Experiment is the registry entry that produced this result.
	Experiment Experiment
	// Table is the emitted table (zero value when Err != nil).
	Table Table
	// Err is the experiment error, a recovered panic, or a timeout.
	Err error
	// Retried reports that the first attempt died in a recovered panic
	// and the experiment was re-run (successfully or not) on its retry
	// stream.
	Retried bool
	// Wall is the experiment's wall-clock duration.
	Wall time.Duration
	// Uses echoes Table.Uses: channel uses simulated.
	Uses int64
	// UsesPerSec is the simulation throughput Uses/Wall.
	UsesPerSec float64
}

// selectExperiments filters exps down to the requested IDs, preserving
// registry order. Unknown IDs are an error.
func selectExperiments(exps []Experiment, only []string) ([]Experiment, error) {
	if len(only) == 0 {
		return exps, nil
	}
	known := make(map[string]bool, len(exps))
	ids := make([]string, len(exps))
	for i, e := range exps {
		known[e.ID] = true
		ids[i] = e.ID
	}
	want := make(map[string]bool, len(only))
	for _, id := range only {
		if !known[id] {
			return nil, fmt.Errorf("no experiment matches %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	out := make([]Experiment, 0, len(want))
	for _, e := range exps {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Run executes the given experiments on a bounded worker pool and
// returns one Result per selected experiment, in registry order.
//
// Determinism: each experiment receives cfg with its seed replaced by
// rng.Stream(cfg.Seed, Experiment.Index), a pure function of the master
// seed and the experiment's identity. Tables are therefore
// byte-identical across any Jobs value and any goroutine schedule.
//
// Failure isolation: a panicking experiment is converted into an error
// Result (with its stack) instead of crashing the batch, and a timeout
// or context cancellation marks only the affected experiments as
// failed. Run itself errors only on an invalid selection.
func Run(ctx context.Context, cfg Config, exps []Experiment, opts RunOptions) ([]Result, error) {
	cfg = cfg.withDefaults()
	selected, err := selectExperiments(exps, opts.Only)
	if err != nil {
		return nil, err
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(selected) {
		jobs = len(selected)
	}
	if jobs < 1 {
		jobs = 1
	}
	results := make([]Result, len(selected))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runOne(ctx, cfg, selected[i], opts)
			}
		}()
	}
	for i := range selected {
		work <- i
	}
	close(work)
	wg.Wait()
	return results, nil
}

// panicError marks an error produced by recovering an experiment
// panic, so the retry logic can tell crashes from ordinary failures.
type panicError struct{ err error }

func (p panicError) Error() string { return p.err.Error() }
func (p panicError) Unwrap() error { return p.err }

// retrySeedBit offsets an experiment's index onto its disjoint retry
// stream: a crashed first attempt is re-run with fresh (but still
// seed-derived, hence reproducible) randomness, since replaying the
// identical stream would deterministically crash again.
const retrySeedBit = uint64(1) << 63

// runOne executes a single experiment with panic recovery, an optional
// deadline, and one bounded retry when the first attempt dies in a
// panic. Timeouts and ordinary errors are not retried: a timeout has
// already consumed its budget, and an error return is a deliberate
// verdict rather than a crash.
func runOne(ctx context.Context, cfg Config, e Experiment, opts RunOptions) Result {
	res := Result{Experiment: e}
	// A batch canceled before this experiment started must not burn an
	// attempt (or a retry) on it: fail fast with the context verdict.
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("%s: %w", e.ID, err)
		return res
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	type outcome struct {
		table Table
		err   error
	}
	attempt := func(seedIndex uint64) outcome {
		ecfg := cfg
		ecfg.Seed = rng.Stream(cfg.Seed, seedIndex)
		if opts.Trace != nil {
			// Each experiment writes its own stream; the set assembles
			// them in sorted-ID order regardless of worker scheduling.
			ecfg.Tracer = opts.Trace.Tracer(e.ID)
		}
		done := make(chan outcome, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- outcome{err: panicError{fmt.Errorf("%s: panic: %v\n%s", e.ID, r, debug.Stack())}}
				}
			}()
			t, err := e.Run(ecfg)
			done <- outcome{table: t, err: err}
		}()
		select {
		case o := <-done:
			return o
		case <-ctx.Done():
			return outcome{err: fmt.Errorf("%s: %w", e.ID, ctx.Err())}
		}
	}
	start := time.Now()
	o := attempt(e.Index)
	var pe panicError
	if o.err != nil && errors.As(o.err, &pe) && ctx.Err() == nil {
		res.Retried = true
		if retried := attempt(e.Index | retrySeedBit); retried.err == nil {
			o = retried
		}
	}
	res.Table, res.Err = o.table, o.err
	res.Wall = time.Since(start)
	if res.Err == nil {
		res.Uses = res.Table.Uses
		if s := res.Wall.Seconds(); s > 0 {
			res.UsesPerSec = float64(res.Uses) / s
		}
	}
	recordRunMetrics(opts.Metrics, res)
	return res
}

// recordRunMetrics updates the per-experiment runner metrics for one
// finished result. A nil registry records nothing.
func recordRunMetrics(reg *obs.Registry, r Result) {
	if reg == nil {
		return
	}
	id := r.Experiment.ID
	reg.CounterVec("experiments_runs_total", "id").With(id).Inc()
	if r.Retried {
		reg.CounterVec("experiments_retries_total", "id").With(id).Inc()
	}
	if r.Err != nil {
		reg.CounterVec("experiments_errors_total", "id").With(id).Inc()
	}
	reg.CounterVec("experiments_uses_total", "id").With(id).Add(r.Uses)
	reg.LatencyVec("experiments_wall_ms", "id").Observe(id, r.Wall)
}

// Tables extracts the emitted tables from a batch, failing on the first
// experiment error (in registry order).
func Tables(results []Result) ([]Table, error) {
	tables := make([]Table, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		tables = append(tables, r.Table)
	}
	return tables, nil
}

// idLess orders experiment IDs naturally: alphabetic prefix first,
// then numeric suffix by value, so E2 sorts before E10 (plain string
// comparison would interleave them).
func idLess(a, b string) bool {
	split := func(id string) (string, int) {
		i := 0
		for i < len(id) && (id[i] < '0' || id[i] > '9') {
			i++
		}
		num, err := strconv.Atoi(id[i:])
		if err != nil {
			return id, 0
		}
		return id[:i], num
	}
	ap, an := split(a)
	bp, bn := split(b)
	if ap != bp {
		return ap < bp
	}
	if an != bn {
		return an < bn
	}
	return a < b
}

// Summary renders the batch's observability as a table: per experiment
// wall time, channel uses simulated, and simulation throughput. Rows
// are sorted by experiment ID (natural order: A1..A5 before E1, E2
// before E10) regardless of the order results were produced in, so the
// summary shape is deterministic. Wall times vary run to run, so
// callers should keep the summary out of any output meant to be
// reproducible (cmd/experiments sends it to stderr).
func Summary(results []Result) Table {
	t := Table{
		ID:     "RUN",
		Title:  "experiment runner summary",
		Header: []string{"id", "status", "wall(ms)", "uses", "uses/sec"},
		Notes: []string{
			"uses counts simulated channel uses (bits or quanta where applicable); 0 = analytic",
		},
	}
	ordered := append([]Result(nil), results...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return idLess(ordered[i].Experiment.ID, ordered[j].Experiment.ID)
	})
	var wall time.Duration
	var uses int64
	for _, r := range ordered {
		status := "ok"
		if r.Retried {
			status = "ok(retried)"
		}
		if r.Err != nil {
			status = "error: " + firstLine(r.Err.Error())
		}
		t.Rows = append(t.Rows, []string{
			r.Experiment.ID, status,
			fmt.Sprintf("%.1f", float64(r.Wall.Microseconds())/1000),
			fmt.Sprint(r.Uses),
			fmt.Sprintf("%.3g", r.UsesPerSec),
		})
		wall += r.Wall
		uses += r.Uses
	}
	t.Rows = append(t.Rows, []string{
		"total", "-",
		fmt.Sprintf("%.1f", float64(wall.Microseconds())/1000),
		fmt.Sprint(uses), "-",
	})
	return t
}

// firstLine trims an error message to its first line (panic errors
// carry a multi-line stack).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
