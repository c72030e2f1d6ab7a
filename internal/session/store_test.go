package session

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
)

// fakeClock is an injectable deterministic clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func newTestStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func transmits(from int64, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Use: from + int64(i), Kind: channel.EventTransmit, Sent: 1, Received: 1}
	}
	return events
}

func TestStoreIngestAndGet(t *testing.T) {
	s := newTestStore(t, StoreConfig{})
	in := `{"u":1,"k":"T","s":3,"r":3}` + "\n" + `{"u":2,"k":"D","s":4}` + "\n"
	n, snap, err := s.Ingest("alpha", strings.NewReader(in))
	if err != nil || n != 2 {
		t.Fatalf("ingest: n=%d err=%v", n, err)
	}
	if snap.Counts.Transmits != 1 || snap.Counts.Deletes != 1 || snap.LastUse != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
	got, err := s.Get("alpha")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got.Counts != snap.Counts || got.ID != "alpha" {
		t.Fatalf("get %+v != ingest snapshot %+v", got, snap)
	}
	if _, err := s.Get("beta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing session error %v, want ErrNotFound", err)
	}
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Len())
	}
	// A stale batch is rejected whole without mutation.
	if _, _, err := s.Ingest("alpha", strings.NewReader(in)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("stale batch error %v, want ErrOutOfOrder", err)
	}
	if got, _ := s.Get("alpha"); got.LastUse != 2 {
		t.Fatalf("stale batch mutated session to use %d", got.LastUse)
	}
	// Decode failures identify the bad line and leave no session.
	var de *DecodeError
	if _, _, err := s.Ingest("gamma", strings.NewReader("junk\n")); !errors.As(err, &de) || de.Line != 1 {
		t.Fatalf("junk ingest error %v, want line-1 DecodeError", err)
	}
	if _, err := s.Get("gamma"); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed decode created a session")
	}
	if bad := s.Metrics().Rejected.Value(); bad != 2 {
		t.Fatalf("rejected counter %d, want 2", bad)
	}
}

func TestStoreValidatesIDs(t *testing.T) {
	s := newTestStore(t, StoreConfig{})
	for _, id := range []string{"", "a/b", "x y", "a\nb", strings.Repeat("z", 129), "é"} {
		if _, _, err := s.Ingest(id, strings.NewReader("")); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
	if _, _, err := s.Ingest(strings.Repeat("z", 128), strings.NewReader("")); err != nil {
		t.Fatalf("max-length id rejected: %v", err)
	}
}

func TestStoreMaxSessions(t *testing.T) {
	s := newTestStore(t, StoreConfig{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := s.IngestEvents(fmt.Sprintf("s%d", i), transmits(1, 1)); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if _, _, err := s.IngestEvents("overflow", transmits(1, 1)); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("overflow error %v, want ErrTooManySessions", err)
	}
	// Existing sessions keep ingesting at the cap.
	if _, _, err := s.IngestEvents("s0", transmits(2, 1)); err != nil {
		t.Fatalf("existing session blocked at cap: %v", err)
	}
	// A negative cap is a mistake, not a cap that refuses every session.
	if _, err := NewStore(StoreConfig{MaxSessions: -5}); err == nil {
		t.Fatal("NewStore accepted MaxSessions -5")
	}
}

func TestStoreTTLEviction(t *testing.T) {
	clock := newFakeClock()
	s := newTestStore(t, StoreConfig{TTL: time.Minute, Now: clock.Now})
	s.IngestEvents("old", transmits(1, 1))
	clock.Advance(45 * time.Second)
	s.IngestEvents("fresh", transmits(1, 1))
	clock.Advance(30 * time.Second) // old idle 75s, fresh idle 30s
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, err := s.Get("old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("idle session survived eviction")
	}
	if _, err := s.Get("fresh"); err != nil {
		t.Fatalf("fresh session evicted: %v", err)
	}
	// Touching a session resets its idle clock.
	clock.Advance(45 * time.Second)
	s.IngestEvents("fresh", transmits(2, 1))
	clock.Advance(30 * time.Second)
	if n := s.EvictIdle(); n != 0 {
		t.Fatalf("touched session evicted (%d)", n)
	}
	if got := s.Metrics().Evicted.Value(); got != 1 {
		t.Fatalf("capserver_sessions_evicted_total = %d, want 1", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Len())
	}
}

// TestStoreNegativeTTLNeverEvicts pins the "never" meaning of a
// negative TTL: a session idle for a day survives the sweep.
func TestStoreNegativeTTLNeverEvicts(t *testing.T) {
	clock := newFakeClock()
	s := newTestStore(t, StoreConfig{TTL: -1, Now: clock.Now})
	if s.TTL() >= 0 {
		t.Fatalf("TTL %v, want negative", s.TTL())
	}
	s.IngestEvents("idle", transmits(1, 1))
	clock.Advance(24 * time.Hour)
	if n := s.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d sessions with a negative TTL", n)
	}
	if _, err := s.Get("idle"); err != nil {
		t.Fatalf("idle session lost: %v", err)
	}
}

// TestStoreEvictionReclaimsMemory is the satellite memory-hygiene
// regression: 10^5 expired sessions must be reclaimed — the evicted
// counter reflects all of them and heap growth after the
// create/evict cycle stays bounded.
func TestStoreEvictionReclaimsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-session sweep")
	}
	const sessions = 100000
	clock := newFakeClock()
	s := newTestStore(t, StoreConfig{TTL: time.Minute, Now: clock.Now, MaxSessions: sessions})

	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapNow()

	batch := transmits(1, 8)
	for i := 0; i < sessions; i++ {
		if _, _, err := s.IngestEvents(fmt.Sprintf("evict-%06d", i), batch); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if s.Len() != sessions {
		t.Fatalf("len %d, want %d", s.Len(), sessions)
	}
	clock.Advance(2 * time.Minute)
	if n := s.EvictIdle(); n != sessions {
		t.Fatalf("evicted %d, want %d", n, sessions)
	}
	if got := s.Metrics().Evicted.Value(); got != sessions {
		t.Fatalf("capserver_sessions_evicted_total = %d, want %d", got, sessions)
	}
	if s.Len() != 0 {
		t.Fatalf("len %d after full eviction", s.Len())
	}

	after := heapNow()
	// The cycle must not strand the ~10^5 session objects (~400 bytes
	// each would be ~40 MB). Allow generous slack for map bucket arrays
	// the runtime keeps; what matters is the order of magnitude.
	const bound = 8 << 20
	if after > before && after-before > bound {
		t.Fatalf("heap grew %d bytes across create/evict cycle (bound %d)", after-before, bound)
	}
}

func TestStoreList(t *testing.T) {
	s := newTestStore(t, StoreConfig{})
	for _, id := range []string{"c", "a", "e", "b", "d"} {
		s.IngestEvents(id, transmits(1, 1))
	}
	page1, next := s.List("", 2)
	if len(page1) != 2 || page1[0].ID != "a" || page1[1].ID != "b" || next != "b" {
		t.Fatalf("page1 %v next %q", ids(page1), next)
	}
	page2, next := s.List(next, 2)
	if len(page2) != 2 || page2[0].ID != "c" || page2[1].ID != "d" || next != "d" {
		t.Fatalf("page2 %v next %q", ids(page2), next)
	}
	page3, next := s.List(next, 2)
	if len(page3) != 1 || page3[0].ID != "e" || next != "" {
		t.Fatalf("page3 %v next %q", ids(page3), next)
	}
}

func ids(snaps []Snapshot) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.ID
	}
	return out
}

// TestStoreConcurrentIngest exercises shard locking under the race
// detector: concurrent sessions land their exact event counts.
func TestStoreConcurrentIngest(t *testing.T) {
	s := newTestStore(t, StoreConfig{})
	const goroutines, batches = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("conc-%02d", g)
			for b := 0; b < batches; b++ {
				if _, _, err := s.IngestEvents(id, transmits(int64(b*5+1), 5)); err != nil {
					t.Errorf("%s batch %d: %v", id, b, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		snap, err := s.Get(fmt.Sprintf("conc-%02d", g))
		if err != nil || snap.Counts.Transmits != batches*5 {
			t.Fatalf("session %d: %+v err=%v", g, snap.Counts, err)
		}
	}
	if got := s.Metrics().Events.Value(); got != goroutines*batches*5 {
		t.Fatalf("events counter %d, want %d", got, goroutines*batches*5)
	}
}

// TestStoreIngestAllocs pins the pooled ingest path: once the pool is
// warm, ingesting a 256-event exact-layout batch into an open session
// makes at most one allocation.
func TestStoreIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items under it; run without -race")
	}
	const runs = 100
	// One batch opens the session; AllocsPerRun makes one warm-up call
	// before its runs.
	bodies := exactBatches(t, runs+2)
	s := newTestStore(t, StoreConfig{})
	var rd bytes.Reader
	next := 0
	ingest := func() {
		rd.Reset(bodies[next])
		next++
		if n, _, err := s.Ingest("steady", &rd); err != nil || n != 256 {
			t.Fatalf("batch %d: applied %d events: %v", next, n, err)
		}
	}
	ingest()
	if allocs := testing.AllocsPerRun(runs, ingest); allocs > 1 {
		t.Fatalf("%.1f allocations per steady-state ingest, want at most 1", allocs)
	}
}

// TestPutScratchDropsOversizedEvents checks that the pool keeps the
// event slice of an ordinary batch but not one grown toward the
// 65,536-event batch cap.
func TestPutScratchDropsOversizedEvents(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		kept     bool
	}{{256, true}, {maxPooledEvents, true}, {maxPooledEvents + 1, false}, {maxBatchEvents, false}} {
		sc := &batchScratch{events: make([]Event, 0, tc.capacity)}
		putScratch(sc)
		if kept := sc.events != nil; kept != tc.kept {
			t.Errorf("capacity %d: kept %v, want %v", tc.capacity, kept, tc.kept)
		}
	}
}
