// Package health converts the service's telemetry into an honest
// verdict (DESIGN.md §14). It retains a fixed window of registry
// snapshots sampled on a deterministic tick, derives windowed rates,
// ratios and latency quantiles from them, and evaluates a declarative
// rule set with hysteresis so the same snapshot sequence always yields
// the same alert transitions — no wall-clock time enters any
// serialized artifact.
//
// The package deliberately imports only internal/obs: capserver and
// cluster build on it, never the other way around, so an engine outside
// any member can evaluate the very same rules against metrics parsed
// off the wire. The one such engine is the alert-lifecycle harness's
// monitor (internal/cluster), which scrapes a member's /metrics;
// cmd/capwatch runs no engine and renders the members' own verdicts.
package health

import "repro/internal/obs"

// Snapshot is one retained registry sample: the tick index it was
// taken at plus the flattened series and histogram samples, indexed
// for O(1) lookup during rule evaluation.
type Snapshot struct {
	// Tick is the deterministic sample index (0, 1, 2, ...), the only
	// notion of time the health layer has.
	Tick int64

	series map[string]int64
	hists  map[string]obs.HistSample
}

// NewSnapshot indexes a registry snapshot for the ring. Gauge-func
// series are retained like any other sample: the caller chose when to
// sample, so by the time data exists the values are fixed.
func NewSnapshot(tick int64, data obs.RegistrySnapshot) Snapshot {
	s := Snapshot{
		Tick:   tick,
		series: make(map[string]int64, len(data.Series)),
		hists:  make(map[string]obs.HistSample, len(data.Hists)),
	}
	for _, ss := range data.Series {
		s.series[ss.Name] = ss.Value
	}
	for _, h := range data.Hists {
		s.hists[h.Name] = h
	}
	return s
}

// Series returns the sample for a fully rendered series name.
func (s *Snapshot) Series(name string) (int64, bool) {
	v, ok := s.series[name]
	return v, ok
}

// Hist returns the histogram sample for a fully rendered series name.
func (s *Snapshot) Hist(name string) (obs.HistSample, bool) {
	h, ok := s.hists[name]
	return h, ok
}

// Ring retains the last Cap() snapshots in tick order. The zero value
// is not usable; construct with NewRing.
type Ring struct {
	snaps []Snapshot
	n     int // total pushed
}

// NewRing returns a ring retaining up to capacity snapshots
// (minimum 2 — windowed queries are deltas and need two points).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	return &Ring{snaps: make([]Snapshot, capacity)}
}

// Push retains a snapshot, evicting the oldest when full.
func (r *Ring) Push(s Snapshot) {
	r.snaps[r.n%len(r.snaps)] = s
	r.n++
}

// Len returns the number of retained snapshots.
func (r *Ring) Len() int {
	if r.n < len(r.snaps) {
		return r.n
	}
	return len(r.snaps)
}

// Cap returns the retention capacity.
func (r *Ring) Cap() int { return len(r.snaps) }

// Back returns the snapshot i steps back from the latest (0 = latest).
func (r *Ring) Back(i int) (*Snapshot, bool) {
	if i < 0 || i >= r.Len() {
		return nil, false
	}
	return &r.snaps[(r.n-1-i)%len(r.snaps)], true
}

// Latest returns the most recent snapshot.
func (r *Ring) Latest() (*Snapshot, bool) { return r.Back(0) }

// span returns the snapshots covering a lookback of `window` ticks:
// latest and the oldest retained snapshot at most `window` steps back.
// ok is false until two snapshots exist.
func (r *Ring) span(window int) (oldest, latest *Snapshot, steps int, ok bool) {
	n := r.Len()
	if n < 2 || window < 1 {
		return nil, nil, 0, false
	}
	steps = window
	if steps > n-1 {
		steps = n - 1
	}
	latest, _ = r.Back(0)
	oldest, _ = r.Back(steps)
	return oldest, latest, steps, true
}

// Value returns the latest sample of a series. Unknown when the ring
// is empty or the series is absent from the latest snapshot.
func (r *Ring) Value(name string) (float64, bool) {
	s, ok := r.Latest()
	if !ok {
		return 0, false
	}
	v, ok := s.Series(name)
	return float64(v), ok
}

// Increase returns the counter-reset-aware increase of a series over
// the last `window` ticks: the sum of positive adjacent deltas across
// the retained snapshots in the span. A restart resets a counter to
// zero mid-span; the monotonic decrease contributes nothing instead of
// a huge negative (or, re-baselined, spuriously huge positive) value —
// the Prometheus increase() discipline. A series absent from an older
// snapshot baselines at its first appearance; a series absent from the
// newest snapshot is not evaluable. Unknown until two snapshots exist.
func (r *Ring) Increase(name string, window int) (float64, bool) {
	_, latest, steps, ok := r.span(window)
	if !ok {
		return 0, false
	}
	if _, ok := latest.Series(name); !ok {
		return 0, false
	}
	var sum int64
	prev, prevOK := int64(0), false
	for i := steps; i >= 0; i-- {
		s, _ := r.Back(i)
		v, ok := s.Series(name)
		if !ok {
			continue
		}
		if prevOK {
			if d := v - prev; d > 0 {
				sum += d
			}
		}
		prev, prevOK = v, true
	}
	return float64(sum), true
}

// Rate returns Increase divided by the covered span in seconds
// (steps × tickSeconds — the actual span, so a partially warm ring
// reports the rate over the data it has, deterministically).
func (r *Ring) Rate(name string, window int, tickSeconds float64) (float64, bool) {
	inc, ok := r.Increase(name, window)
	if !ok || tickSeconds <= 0 {
		return 0, false
	}
	_, _, steps, _ := r.span(window)
	return inc / (float64(steps) * tickSeconds), true
}

// Ratio returns a/b. With window >= 1 both terms are windowed
// increases (e.g. hit ratio over the last 5m); with window 0 both are
// latest values (e.g. observed capacity vs an assumed bound). A zero
// denominator is unknown, not infinity: a rule must not fire off the
// absence of traffic.
func (r *Ring) Ratio(a, b string, window int) (float64, bool) {
	var av, bv float64
	var aok, bok bool
	if window >= 1 {
		av, aok = r.Increase(a, window)
		bv, bok = r.Increase(b, window)
	} else {
		av, aok = r.Value(a)
		bv, bok = r.Value(b)
	}
	if !aok || !bok || bv == 0 {
		return 0, false
	}
	return av / bv, true
}

// Quantile returns the q-th latency quantile over the last `window`
// ticks, from the bucket deltas between the span's endpoints — the
// same upper-bin-edge rule as LatencyVec.Quantile, applied to only the
// window's observations. If any bucket decreased across the span (a
// histogram reset), the latest counts stand alone, baselined at zero.
// A window with no observations is unknown — there is no latency to
// report, and "0ms" would read as impossibly fast.
func (r *Ring) Quantile(name string, window int, q float64) (float64, bool) {
	oldest, latest, _, ok := r.span(window)
	if !ok {
		return 0, false
	}
	lh, ok := latest.Hist(name)
	if !ok {
		return 0, false
	}
	counts := append([]int(nil), lh.Counts...)
	total := lh.Total
	if oh, ok := oldest.Hist(name); ok && len(oh.Counts) == len(lh.Counts) {
		reset := false
		for i, c := range oh.Counts {
			if lh.Counts[i] < c {
				reset = true
				break
			}
		}
		if !reset {
			for i, c := range oh.Counts {
				counts[i] -= c
			}
			total -= oh.Total
		}
	}
	if total <= 0 {
		return 0, false
	}
	return obs.QuantileFromCounts(counts, total, q), true
}
