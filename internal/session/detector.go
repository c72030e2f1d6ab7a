package session

import (
	"math"

	"repro/internal/channel"
)

// Status is a session's supervision status, the streaming analogue of
// syncproto's Supervisor status: it tells an operator (or an automated
// Supervisor driving resync) whether the session's parameter estimate
// is currently trustworthy.
type Status string

const (
	// StatusWarmup: still collecting the baseline window; the estimate
	// exists but drift detection is not yet armed.
	StatusWarmup Status = "warmup"
	// StatusOK: baseline armed, no change point detected.
	StatusOK Status = "ok"
	// StatusResync: a change point fired; the detector is re-learning
	// the post-change baseline. Consumers should treat the whole-history
	// estimate as mixing two regimes and prefer to resynchronize.
	StatusResync Status = "resync"
)

// The detector's tuning, sized for per-use event streams in the
// paper's parameter regime (rates of a few percent, sessions of
// 10^3–10^5 uses).
const (
	// warmup is the number of uses over which each baseline is
	// learned. Larger warmup gives tighter baselines and fewer false
	// alarms but delays arming.
	warmup = 512
	// delta is the minimum absolute up-shift the CUSUM is tuned for.
	// The actual up alternative is rate-relative,
	// max(2·p0, p0+delta): a doubling of a common event rate and a
	// delta-sized jump of a rare one are both "the designed shift".
	// The down alternative is always a halving, p0/2 — an additive
	// down-shift of a rare event would clamp to ~0 and make every
	// non-event weak positive evidence, which turns long gaps between
	// events into false alarms. Smaller shifts than the design point
	// are still detected, just later.
	delta = 0.08
	// threshold is the CUSUM decision threshold h in nats. Raising it
	// trades detection delay for fewer false alarms; at this tuning an
	// injected shift of the design size fires within a few hundred
	// uses while stationary streams of 10^4 uses fire at well under
	// the 1% level (measured, not just the classical e^h ARL
	// heuristic — baseline estimation noise is the real driver, which
	// is what guard absorbs).
	threshold = 8
	// guard widens the null hypotheses by this many standard errors
	// of the warmup baseline estimate. A CUSUM armed from an estimated
	// baseline inherits that estimate's noise: a baseline
	// underestimated by 2 SE turns the in-control drift of the
	// up-CUSUM nearly flat and fires spuriously. Testing against
	// p0 ± guard·SE instead of p0 makes "in control" mean "within the
	// warmup window's own uncertainty", which empirically cuts
	// per-stream false alarms by an order of magnitude at the cost of
	// ignoring shifts smaller than the guard band.
	guard = 2.5
	// minP clamps baseline rates away from 0 and 1 so the
	// log-likelihood increments stay finite when the warmup window
	// observed no events of a stream.
	minP = 1e-3
)

// cusum is one two-sided Bernoulli CUSUM over a 0/1 indicator stream.
// During warmup it only tallies; once armed, each observation x adds
// the log-likelihood ratio of the shifted-rate hypothesis against the
// baseline to two one-sided statistics (rate up to max(2·p0, p0+delta),
// rate down to p0/2), each floored at zero (the classical CUSUM
// recursion). Crossing the threshold on either side is a change point.
// State is six float64s and three int64s — O(1) regardless of stream
// length.
type cusum struct {
	seen, ones int64 // warmup tallies
	armed      bool
	// Armed-state log-likelihood increment tables: lrUp[x] is the
	// increment for observation x under the rate-up alternative,
	// lrDown[x] under rate-down. Precomputed at arming so the per-event
	// cost is one add, one compare, one max.
	lrUp, lrDown [2]float64
	up, down     float64 // one-sided CUSUM statistics
}

// observe feeds one indicator observation, arming after warmup uses
// and reporting whether a change point fired.
func (s *cusum) observe(x int64) bool {
	if !s.armed {
		s.seen++
		s.ones += x
		if s.seen >= warmup {
			s.arm()
		}
		return false
	}
	s.up = math.Max(0, s.up+s.lrUp[x])
	s.down = math.Max(0, s.down+s.lrDown[x])
	return s.up > threshold || s.down > threshold
}

// arm fixes the baseline from the warmup tallies and precomputes the
// increment tables. Each side tests its alternative against a
// guard-banded null (p0 ± guard standard errors of the warmup
// estimate) rather than p0 itself; see guard.
func (s *cusum) arm() {
	clamp := func(p float64) float64 {
		return math.Min(1-minP, math.Max(minP, p))
	}
	p0 := clamp(float64(s.ones) / float64(s.seen))
	se := math.Sqrt(p0 * (1 - p0) / float64(s.seen))
	nullUp := clamp(p0 + guard*se)
	p1 := clamp(math.Max(2*nullUp, nullUp+delta))
	nullDown := clamp(p0 - guard*se)
	p2 := clamp(nullDown / 2)
	// log L(x|p1)/L(x|nullUp) for x in {0,1}; likewise p2 vs nullDown.
	// When the clamp collapses an alternative onto its null (baseline
	// already at the boundary) the increments are 0 and that side
	// simply never fires, which is correct: there is no room to shift
	// further.
	s.lrUp = [2]float64{math.Log((1 - p1) / (1 - nullUp)), math.Log(p1 / nullUp)}
	s.lrDown = [2]float64{math.Log((1 - p2) / (1 - nullDown)), math.Log(p2 / nullDown)}
	s.up, s.down = 0, 0
	s.armed = true
}

// reset returns the stream to warmup for post-change re-baselining.
func (s *cusum) reset() { *s = cusum{} }

// Detector watches a session's event stream for parameter drift. It
// runs three two-sided Bernoulli CUSUMs, one per Definition 1 rate:
//
//   - pd stream: deletion indicator, one observation per use;
//   - pi stream: insertion indicator, one observation per use;
//   - ps stream: substitution indicator, one observation per
//     transmission event (T or S), matching Ps's conditioning.
//
// A change point on any stream increments Drifts, records the firing
// use index, and resets all three streams to warmup (the proactive
// resync): the post-change baseline is re-learned from fresh data
// rather than polluted by the old regime. Status reads
// warmup -> ok -> (drift) -> resync -> ok.
type Detector struct {
	pd, pi, ps cusum
	inResync   bool
	drifts     int64
	lastChange int64
	recoveries int64

	statPd, statPi, statPs StreamStats
}

// StreamStats is one CUSUM stream's aggregate accounting, the raw
// material of a false-alarm estimate: how often the armed stream was
// fed and how often it fired. On a stationary stream every fire is by
// definition a false alarm, so fires/armed-uses estimates the
// per-observation false-alarm rate; under real drift it mixes true
// detections in and reads as an upper bound.
type StreamStats struct {
	// Fires counts change points attributed to this stream (a single
	// use can fire several streams; each counts its own).
	Fires int64
	// ArmedUses counts observations fed while the stream was armed —
	// the denominator warmup observations are excluded from, since an
	// unarmed CUSUM cannot fire.
	ArmedUses int64
}

// Observe feeds one event's kind at the given use index.
func (d *Detector) Observe(kind channel.EventKind, use int64) {
	del, ins, sub := int64(0), int64(0), int64(0)
	switch kind {
	case channel.EventDelete:
		del = 1
	case channel.EventInsert:
		ins = 1
	case channel.EventSubstitute:
		sub = 1
	}
	feed := func(s *cusum, st *StreamStats, x int64) bool {
		if s.armed {
			st.ArmedUses++
		}
		if !s.observe(x) {
			return false
		}
		st.Fires++
		return true
	}
	fired := feed(&d.pd, &d.statPd, del)
	fired = feed(&d.pi, &d.statPi, ins) || fired
	if kind == channel.EventTransmit || kind == channel.EventSubstitute {
		fired = feed(&d.ps, &d.statPs, sub) || fired
	}
	if fired {
		d.drifts++
		d.lastChange = use
		d.inResync = true
		d.pd.reset()
		d.pi.reset()
		d.ps.reset()
		return
	}
	// Leaving resync: once every stream has re-armed on post-change
	// data, the estimate of the new regime is trustworthy again.
	if d.inResync && d.armed() {
		d.inResync = false
		d.recoveries++
	}
}

// armed reports whether all per-use streams have finished warmup. The
// ps stream is intentionally excluded: it only advances on
// transmission events, so on a deletion-heavy channel it arms later
// than the per-use streams — and on an all-delete stream, never.
func (d *Detector) armed() bool { return d.pd.armed && d.pi.armed }

// Status returns the current supervision status.
func (d *Detector) Status() Status {
	switch {
	case d.inResync:
		return StatusResync
	case !d.armed():
		return StatusWarmup
	default:
		return StatusOK
	}
}

// Drifts returns the number of change points detected.
func (d *Detector) Drifts() int64 { return d.drifts }

// LastChangeUse returns the use index at which the most recent change
// point fired (0 if none).
func (d *Detector) LastChangeUse() int64 { return d.lastChange }

// Recoveries returns the number of completed post-drift re-baselines.
func (d *Detector) Recoveries() int64 { return d.recoveries }

// Stats returns the per-stream aggregate accounting in pd, pi, ps
// order. Unlike the CUSUM state it survives post-drift resets: the
// totals accumulate over the session's whole life.
func (d *Detector) Stats() (pd, pi, ps StreamStats) {
	return d.statPd, d.statPi, d.statPs
}
