package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// Estimate is the empirical Definition 1 parameter estimate implied by
// observed channel-use events, with Wilson 95% confidence intervals.
// Pd and Pi are event fractions over all uses; Ps is the substitution
// fraction over transmission events only, matching Definition 1's
// conditioning.
type Estimate struct {
	Pd, Pi, Ps                         float64
	PdLo, PdHi, PiLo, PiHi, PsLo, PsHi float64
	// Uses is the number of channel uses the estimate is based on.
	Uses int64
}

// Estimate computes the parameter estimate from event tallies.
func (c UseCounts) Estimate() Estimate {
	uses := c.Uses()
	e := Estimate{Uses: uses}
	if uses == 0 {
		e.PdHi, e.PiHi, e.PsHi = 1, 1, 1
		return e
	}
	pd := stats.Proportion{K: int(c.Deletes), N: int(uses)}
	pi := stats.Proportion{K: int(c.Inserts), N: int(uses)}
	e.Pd, e.Pi = pd.Estimate(), pi.Estimate()
	e.PdLo, e.PdHi = pd.Wilson95()
	e.PiLo, e.PiHi = pi.Wilson95()
	trans := c.Transmits + c.Substitutes
	ps := stats.Proportion{K: int(c.Substitutes), N: int(trans)}
	e.Ps = ps.Estimate()
	e.PsLo, e.PsHi = ps.Wilson95()
	if trans == 0 {
		e.PsLo, e.PsHi = 0, 1
	}
	return e
}

// Contains reports whether the given assumed parameters fall inside
// the estimate's confidence intervals: tracecap's agreement verdict,
// which cmd/chansim's TestRunObservabilityOutputs asserts on a trace
// chansim wrote. NaN assumptions never agree.
func (e Estimate) Contains(pd, pi, ps float64) bool {
	in := func(v, lo, hi float64) bool { return !math.IsNaN(v) && v >= lo && v <= hi }
	return in(pd, e.PdLo, e.PdHi) && in(pi, e.PiLo, e.PiHi) && in(ps, e.PsLo, e.PsHi)
}

// SpanStats aggregates the spans of one kernel name seen in a trace.
type SpanStats struct {
	// Count is the number of spans recorded.
	Count int64
	// Sums accumulates each numeric span field (e.g. iters, nodes).
	Sums map[string]float64
}

// TraceSummary is the aggregate of one recorded JSONL trace.
type TraceSummary struct {
	// UseCounts tallies the per-use events.
	UseCounts
	// Events is the total number of trace lines read.
	Events int64
	// Supervision totals: the sums of the supervisor's "sup" summary
	// lines, one per supervised run (0 when the trace has none).
	Chunks, Attempts, Retries, Resyncs, FailedChunks int64
	// BackoffUses sums the channel uses burned backing off.
	BackoffUses int64
	// Spans aggregates kernel spans by name.
	Spans map[string]*SpanStats
}

// Estimate returns the parameter estimate implied by the trace's
// per-use events.
func (s *TraceSummary) Estimate() Estimate { return s.UseCounts.Estimate() }

// traceLine is the loose decoding schema for one JSONL line; unknown
// keys are ignored so the reader stays forward-compatible.
type traceLine struct {
	T           string `json:"t"`
	K           string `json:"k"`
	Sp          string `json:"sp"`
	Inj         int    `json:"inj"`
	Chunks      int64  `json:"chunks"`
	Attempts    int64  `json:"attempts"`
	Retries     int64  `json:"retries"`
	Resyncs     int64  `json:"resyncs"`
	Failed      int64  `json:"failed"`
	BackoffUses int64  `json:"backoff_uses"`
}

// ReadTrace streams a JSONL trace and returns its aggregate summary.
// Unknown event types are counted in Events and otherwise skipped, so
// traces from newer writers still analyze.
func ReadTrace(r io.Reader) (*TraceSummary, error) {
	sum := &TraceSummary{Spans: make(map[string]*SpanStats)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev traceLine
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		sum.Events++
		switch ev.T {
		case "use":
			switch ev.K {
			case "T":
				sum.Transmits++
			case "S":
				sum.Substitutes++
			case "D":
				sum.Deletes++
			case "I":
				sum.Inserts++
			default:
				return nil, fmt.Errorf("obs: trace line %d: unknown use kind %q", lineNo, ev.K)
			}
			if ev.Inj != 0 {
				sum.Injected++
			}
		case "sup":
			sum.Chunks += ev.Chunks
			sum.Attempts += ev.Attempts
			sum.Retries += ev.Retries
			sum.Resyncs += ev.Resyncs
			sum.FailedChunks += ev.Failed
			sum.BackoffUses += ev.BackoffUses
		case "span":
			st := sum.Spans[ev.Sp]
			if st == nil {
				st = &SpanStats{Sums: make(map[string]float64)}
				sum.Spans[ev.Sp] = st
			}
			st.Count++
			// Re-decode the line generically to sum its numeric fields.
			var m map[string]any
			if err := json.Unmarshal(line, &m); err == nil {
				for k, v := range m {
					if f, ok := v.(float64); ok && k != "inj" {
						st.Sums[k] += f
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return sum, nil
}
