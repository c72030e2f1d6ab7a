// Package session is the streaming estimation layer (DESIGN.md §13):
// sessionized online (Pd, Pi, Ps) estimation with live drift detection
// at 10^5+ concurrent sessions.
//
// The offline pipeline (internal/obs: record a trace, ReadTrace,
// Estimate) answers "what were this channel's parameters?" after the
// fact. A serving system tracking live covert channels needs the same
// answer while the channel is in use, for sessions that arrive as
// streams of per-use events over long-lived connections. This package
// provides that:
//
//   - Event/DecodeBatch: the NDJSON wire form of one channel use
//     (use index, Definition 1 event kind, sent symbol, received
//     symbol or nothing for an erasure), decoded strictly — malformed
//     input is rejected with the first bad line number, never a panic;
//   - Estimator: O(1)-memory online (Pd, Pi, Ps) estimation. It keeps
//     exactly the obs.UseCounts tallies and defers to obs.Estimate for
//     the point estimates and Wilson 95% intervals, so feeding a trace
//     event-by-event yields bit-identical results to batch analysis
//     of the full trace (a property the tests pin);
//   - Detector: a per-stream Bernoulli CUSUM change-point detector
//     over the deletion, insertion and substitution indicator streams.
//     A warmup prefix fixes the baseline rates; after that each
//     observation updates two one-sided CUSUM statistics in O(1), and
//     crossing the decision threshold flags drift at a known use
//     index. Detection proactively drives a Supervisor-style resync
//     status (warmup -> ok -> resync -> ok) instead of waiting for
//     downstream chunk failures;
//   - Store: a sharded, TTL-evicting map of live sessions with
//     obs-registry counters (capserver_sessions_evicted_total and
//     friends) and deterministic paged listing.
//
// capserver exposes the store as POST /v1/sessions/{id}/events,
// GET /v1/sessions/{id} (live estimate plus capacity bounds at the
// quantized estimate, served through the shared LRU) and
// GET /v1/sessions; the cluster layer shards session ownership across
// members by session ID on the same consistent-hash ring the cache
// keyspace uses. cmd/sessload is the deterministic 10^5-session load
// harness over this package.
package session

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/obs"
)

// N is every session's symbol width in bits: a session estimates a
// channel over 2^N symbols, the decoder accepts no wider symbol
// (MaxSymbol), and the capacity bounds served for it assume N.
const N = 4

// Config tunes one session. The zero value selects workable defaults.
type Config struct {
	// Detector tunes the change-point detector.
	Detector DetectorConfig
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	c.Detector = c.Detector.withDefaults()
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error { return c.Detector.validate() }

// Session is one live channel-estimation session: an online estimator
// plus a drift detector, fed strictly increasing use events. It is not
// safe for concurrent use; the Store serializes access per session.
type Session struct {
	id  string
	cfg Config
	est Estimator
	det Detector
}

// New creates a session.
func New(id string, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Session{id: id, cfg: cfg}
	s.det.init(cfg.Detector)
	return s, nil
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// LastUse returns the highest use index applied so far (0 before the
// first event).
func (s *Session) LastUse() int64 { return s.est.LastUse() }

// Apply feeds one event. Events must arrive in strictly increasing
// use-index order; a violation is rejected as ErrOutOfOrder without
// mutating the session.
func (s *Session) Apply(ev Event) error {
	if ev.Use <= s.est.LastUse() {
		return fmt.Errorf("%w: use %d after use %d", ErrOutOfOrder, ev.Use, s.est.LastUse())
	}
	s.est.Apply(ev)
	s.det.Observe(ev.Kind, ev.Use)
	return nil
}

// Estimate returns the live parameter estimate, bit-identical to what
// batch obs.Estimate would produce over the same events.
func (s *Session) Estimate() obs.Estimate { return s.est.Estimate() }

// Counts returns the live event tallies.
func (s *Session) Counts() obs.UseCounts { return s.est.Counts() }

// Detector exposes the drift detector's state (read-only use).
func (s *Session) Detector() *Detector { return &s.det }

// Snapshot is a point-in-time copy of a session's observable state,
// safe to use after the session itself has moved on or been evicted.
type Snapshot struct {
	ID     string
	Counts obs.UseCounts
	// Estimate is the live obs.Estimate at snapshot time.
	Estimate obs.Estimate
	// LastUse is the highest applied use index.
	LastUse int64
	// Status is the detector's supervision status.
	Status Status
	// Drifts counts detected change points; LastChangeUse is the use
	// index at which the most recent one fired (0 if none).
	Drifts        int64
	LastChangeUse int64
	// Recoveries counts completed post-drift re-baselines.
	Recoveries int64
}

// Snapshot captures the session's current state.
func (s *Session) Snapshot() Snapshot {
	return Snapshot{
		ID:            s.id,
		Counts:        s.est.Counts(),
		Estimate:      s.est.Estimate(),
		LastUse:       s.est.LastUse(),
		Status:        s.det.Status(),
		Drifts:        s.det.Drifts(),
		LastChangeUse: s.det.LastChangeUse(),
		Recoveries:    s.det.Recoveries(),
	}
}

// KindFromCode maps a Definition 1 event code ("T", "S", "D", "I") to
// its channel.EventKind, reporting ok=false for anything else.
func KindFromCode(code string) (channel.EventKind, bool) {
	switch code {
	case "T":
		return channel.EventTransmit, true
	case "S":
		return channel.EventSubstitute, true
	case "D":
		return channel.EventDelete, true
	case "I":
		return channel.EventInsert, true
	}
	return 0, false
}
