package session

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ErrTooManySessions reports the store at its session cap.
var ErrTooManySessions = errors.New("session: too many live sessions")

// ErrNotFound reports an unknown session ID.
var ErrNotFound = errors.New("session: not found")

// maxBatchEvents bounds the events one ingest batch may carry.
const maxBatchEvents = 1 << 16

// storeShards is the lock-shard count, a power of two so shardFor can
// mask the hash.
const storeShards = 128

// StoreConfig tunes a Store. The zero value selects production-shaped
// defaults.
type StoreConfig struct {
	// TTL evicts sessions idle this long (0 selects 15m; a negative
	// TTL never evicts). EvictIdle applies it; the store itself never
	// spawns goroutines, so owners control sweep cadence (capserver
	// runs a janitor ticker).
	TTL time.Duration
	// MaxSessions caps live sessions (default 1 << 20; NewStore
	// refuses a negative cap). Ingest for a new ID beyond the cap
	// fails with ErrTooManySessions; existing sessions keep ingesting.
	MaxSessions int
	// Now supplies the clock (default time.Now; tests inject a fake to
	// make TTL eviction deterministic).
	Now func() time.Time
	// Metrics receives the session instrument set (nil: a private
	// registry).
	Metrics *Metrics
}

// withDefaults fills unset fields.
func (c StoreConfig) withDefaults() StoreConfig {
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c
}

// entry is one live session with its idle-tracking timestamp.
type entry struct {
	sess     *Session
	lastSeen time.Time
}

// storeShard is one lock shard of the session map.
type storeShard struct {
	mu sync.Mutex
	m  map[string]*entry
}

// Store holds the live sessions of one node, sharded by session ID to
// keep 10^5+ concurrent sessions off a single lock. Per-session state
// is O(1) (the estimator's counters plus the detector's fixed CUSUM
// state), so memory scales with session count, not event count, and
// TTL eviction returns it.
type Store struct {
	cfg    StoreConfig
	shards [storeShards]storeShard
	// count tracks live sessions under its own lock so the MaxSessions
	// check does not scan shards.
	countMu sync.Mutex
	count   int
}

// NewStore builds a store.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("session: negative MaxSessions %d", cfg.MaxSessions)
	}
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*entry)
	}
	cfg.Metrics.Limit.Set(int64(cfg.MaxSessions))
	return s, nil
}

// Metrics returns the store's instrument set.
func (s *Store) Metrics() *Metrics { return s.cfg.Metrics }

// TTL returns the idle-eviction threshold; negative means never.
func (s *Store) TTL() time.Duration { return s.cfg.TTL }

// ValidateID accepts session IDs safe for URL paths and ring keys:
// 1–128 bytes of [A-Za-z0-9._-].
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("session: empty session id")
	}
	if len(id) > 128 {
		return fmt.Errorf("session: session id longer than 128 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("session: session id byte %d (%q) not in [A-Za-z0-9._-]", i, c)
		}
	}
	return nil
}

// shardFor picks the lock shard for an ID. The ring's stable fnv hash
// is reused; only even distribution matters here.
func (s *Store) shardFor(id string) *storeShard {
	return &s.shards[fnvShard(id)&(storeShards-1)]
}

// Ingest decodes one NDJSON batch and applies it to the session,
// creating the session on first contact. The batch is decoded before
// any lock is taken (a slow client never blocks other sessions), into
// pooled scratch that IngestEvents does not retain, then applied
// atomically: either every event lands or none do. Returns the number
// of events applied and the post-apply snapshot.
func (s *Store) Ingest(id string, r io.Reader) (int, Snapshot, error) {
	if err := ValidateID(id); err != nil {
		s.cfg.Metrics.Rejected.Inc()
		return 0, Snapshot{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	events, err := decodeBatch(r, 0, maxBatchEvents, sc.line, sc.events, decodeLine)
	if err != nil {
		s.cfg.Metrics.Rejected.Inc()
		return 0, Snapshot{}, err
	}
	sc.events = events
	return s.IngestEvents(id, events)
}

// IngestEvents applies pre-decoded, intra-batch-ordered events: the
// apply half of Ingest, called directly by the in-process loadgen,
// which generates Events and so has nothing to decode. Ordering
// against the session cursor is enforced here; a stale batch is
// rejected whole with ErrOutOfOrder and no mutation.
func (s *Store) IngestEvents(id string, events []Event) (int, Snapshot, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[id]
	if e == nil {
		if err := s.reserve(); err != nil {
			s.cfg.Metrics.Rejected.Inc()
			return 0, Snapshot{}, err
		}
		e = &entry{sess: New(id)}
		sh.m[id] = e
		s.cfg.Metrics.Created.Inc()
	}
	if len(events) > 0 && events[0].Use <= e.sess.LastUse() {
		s.cfg.Metrics.Rejected.Inc()
		return 0, Snapshot{}, fmt.Errorf("%w: batch starts at use %d, session at use %d",
			ErrOutOfOrder, events[0].Use, e.sess.LastUse())
	}
	det := e.sess.Detector()
	drifts, recoveries := det.Drifts(), det.Recoveries()
	pd0, pi0, ps0 := det.Stats()
	for _, ev := range events {
		// Cannot fail: the batch is intra-ordered and starts above the
		// cursor, both checked above.
		if err := e.sess.Apply(ev); err != nil {
			s.cfg.Metrics.Rejected.Inc()
			return 0, Snapshot{}, err
		}
	}
	e.lastSeen = s.cfg.Now()
	m := s.cfg.Metrics
	m.Events.Add(int64(len(events)))
	m.Drifts.Add(det.Drifts() - drifts)
	m.Resyncs.Add(det.Recoveries() - recoveries)
	pd1, pi1, ps1 := det.Stats()
	for _, d := range []struct {
		stream    string
		pre, post StreamStats
	}{{"pd", pd0, pd1}, {"pi", pi0, pi1}, {"ps", ps0, ps1}} {
		if n := d.post.Fires - d.pre.Fires; n > 0 {
			m.StreamFires.With(d.stream).Add(n)
		}
		if n := d.post.ArmedUses - d.pre.ArmedUses; n > 0 {
			m.StreamUses.With(d.stream).Add(n)
		}
	}
	m.updateAlarmRates()
	return len(events), e.sess.Snapshot(), nil
}

// reserve claims one session slot against MaxSessions.
func (s *Store) reserve() error {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	if s.count >= s.cfg.MaxSessions {
		return fmt.Errorf("%w: %d live", ErrTooManySessions, s.count)
	}
	s.count++
	s.cfg.Metrics.Active.Set(int64(s.count))
	return nil
}

// release returns n session slots.
func (s *Store) release(n int) {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	s.count -= n
	s.cfg.Metrics.Active.Set(int64(s.count))
}

// Get snapshots one session.
func (s *Store) Get(id string) (Snapshot, error) {
	if err := ValidateID(id); err != nil {
		return Snapshot{}, err
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[id]
	if e == nil {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.sess.Snapshot(), nil
}

// Len returns the live session count.
func (s *Store) Len() int {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return s.count
}

// List returns up to limit session snapshots in ascending ID order,
// strictly after the given ID ("" starts from the beginning), plus the
// page token for the next call ("" when exhausted). The ID sweep is
// O(sessions) per page; listing is an operator surface, not a hot
// path.
func (s *Store) List(afterID string, limit int) ([]Snapshot, string) {
	if limit <= 0 {
		limit = 100
	}
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			if id > afterID {
				ids = append(ids, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	more := len(ids) > limit
	if more {
		ids = ids[:limit]
	}
	snaps := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		// A session may be evicted between the sweep and this read;
		// skip holes rather than failing the page.
		if snap, err := s.Get(id); err == nil {
			snaps = append(snaps, snap)
		}
	}
	next := ""
	if more && len(ids) > 0 {
		next = ids[len(ids)-1]
	}
	return snaps, next
}

// EvictIdle removes every session idle for at least the TTL and
// returns how many were reclaimed. A negative TTL keeps sessions
// forever.
func (s *Store) EvictIdle() int {
	if s.cfg.TTL < 0 {
		return 0
	}
	cutoff := s.cfg.Now().Add(-s.cfg.TTL)
	evicted := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, e := range sh.m {
			if !e.lastSeen.After(cutoff) {
				delete(sh.m, id)
				evicted++
			}
		}
		// Go maps never release bucket arrays on delete; after a mass
		// eviction drains a shard, swap in a fresh map so the heap
		// actually returns (the 10^5-eviction regression test's bound).
		if len(sh.m) == 0 {
			sh.m = make(map[string]*entry)
		}
		sh.mu.Unlock()
	}
	if evicted > 0 {
		s.release(evicted)
		s.cfg.Metrics.Evicted.Add(int64(evicted))
	}
	return evicted
}

// fnvShard is FNV-1a with the ring's avalanche finalizer, duplicated
// here (three lines) rather than importing internal/cluster: the
// session layer must not depend on the cluster layer.
func fnvShard(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
