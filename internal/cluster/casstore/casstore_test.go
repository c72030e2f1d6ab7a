package casstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "bounds?n=4&pd=0.2&pf=0.01"
	body := []byte(`{"capacity":1.234}` + "\n")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(key, body)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("round trip: ok=%v got=%q want=%q", ok, got, body)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len: %d err=%v", n, err)
	}
}

func TestSharedDirectoryAcrossStores(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("predict?n=5&pd=0.1", []byte("body-a"))

	// A second Store over the same directory models a peer node (or a
	// restarted node warm-starting): it must see the first one's entry.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("predict?n=5&pd=0.1")
	if !ok || string(got) != "body-a" {
		t.Fatalf("peer store read: ok=%v got=%q", ok, got)
	}
}

// segFiles lists dir's segment files.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// slotOffset returns the file offset of key's slot in the segment at
// path, walking the key's probe sequence as the store does.
func slotOffset(t *testing.T, path, key string) int64 {
	t.Helper()
	table := make([]byte, tableBytes)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(table, 0); err != nil {
		t.Fatal(err)
	}
	a := addressOf(key)
	for p := uint64(0); p < tableSlots; p++ {
		off := (a.home + p) % tableSlots * slotBytes
		switch binary.NativeEndian.Uint64(table[off:]) {
		case a.tag:
			return int64(off)
		case 0:
			t.Fatalf("%s holds no slot for %q", path, key)
		}
	}
	t.Fatalf("%s: probe for %q found a full table", path, key)
	return 0
}

// drop releases a Store's mappings and descriptors at once, as its
// finalizer would once it became unreachable.
func drop(s *Store) {
	runtime.SetFinalizer(s, nil)
	s.release()
}

func TestCorruptEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "trace?n=3&seed=7"
	body := []byte(`{"upper":3.6}` + "\n")
	s.Put(key, body)
	good := encode(key, body)
	flipped := append([]byte(nil), good...)
	flipped[bytes.LastIndexByte(flipped, '.')] ^= 1 // "3.6" -> "3/6"
	sum := fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))
	v2 := func(klen, blen, sum string) []byte {
		return []byte(fmt.Sprintf("capcas/v2 %s %s %s\n%s%s", klen, blen, sum, key, body))
	}
	klen, blen := fmt.Sprint(len(key)), fmt.Sprint(len(body))

	// Every case is a record the key's slot points to. A whole record of
	// another key is a tag collision, not damage: it misses without
	// counting as corrupt.
	cases := []struct {
		name      string
		raw       []byte
		collision bool
	}{
		{"not an entry", []byte("not an entry"), false},
		{"bogus length", []byte("capcas/v1 bogus\nxx"), false},
		{"length past the end", []byte("capcas/v1 9999\nshort"), false},
		{"embedded key mismatch", encode("trace?n=3&seed=8", body), true},
		{"flipped body bit", flipped, false},
		{"truncated body", good[:len(good)-len(body)/2], false},
		{"trailing bytes", append(append([]byte(nil), good...), 'x'), false},
		{"signed v1 key length", []byte(fmt.Sprintf("capcas/v1 +%d\n%s%s", len(key), key, body)), false},
		{"signed key length", v2("+"+klen, blen, sum), false},
		{"zero-padded body length", v2(klen, "0"+blen, sum), false},
		{"upper-case checksum", v2(klen, blen, strings.ToUpper(sum)), false},
		{"short checksum", v2(klen, blen, sum[1:]), false},
		{"wrong checksum", v2(klen, blen, "00000000"), false},
		// Last, so the recovery below shows a v1 entry being healed.
		{"well-formed v1 entry", []byte(fmt.Sprintf("capcas/v1 %d\n%s%s", len(key), key, body)), false},
	}
	if !bytes.Equal(v2(klen, blen, sum), good) {
		t.Fatalf("fixture header differs from encode:\n%q\n%q", v2(klen, blen, sum), good)
	}
	seg := filepath.Join(dir, "seg-000000")
	slot := slotOffset(t, seg, key)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	damaged := int64(0)
	for _, c := range cases {
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		var loc [8]byte
		binary.NativeEndian.PutUint64(loc[:], uint64(fi.Size())<<lenBits|uint64(len(c.raw)))
		if _, err := f.WriteAt(c.raw, fi.Size()); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(loc[:], slot+8); err != nil {
			t.Fatal(err)
		}
		if !c.collision {
			damaged++
		}
		if got, ok := s.Get(key); ok {
			t.Errorf("%s: corrupt entry %q served as a hit with body %q", c.name, c.raw, got)
		}
		if st := s.Stats(); st.Corrupt != damaged {
			t.Errorf("%s: corrupt count %d, want %d", c.name, st.Corrupt, damaged)
		}
	}

	// Recovery: a fresh Put heals the slot, and neither this Store nor a
	// peer meets the damaged record again.
	s.Put(key, []byte("good again"))
	peer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"writer": s, "peer": peer} {
		if got, ok := st.Get(key); !ok || string(got) != "good again" {
			t.Fatalf("recovery read by the %s: ok=%v got=%q", name, ok, got)
		}
	}
	if st := s.Stats(); st.Corrupt != damaged || st.Hits != 1 {
		t.Fatalf("writer stats after healing: %+v, want %d corrupt and 1 hit", st, damaged)
	}
	if st := peer.Stats(); st.Corrupt != 0 || st.Hits != 1 {
		t.Fatalf("peer stats after healing: %+v, want no corrupt and 1 hit", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len after healing: %d err=%v, want the one healed slot", n, err)
	}
}

// FuzzDecode holds decode to its contract over arbitrary records: it
// never panics, it accepts only the exact bytes encode writes for the
// key, and every encoded entry decodes to its body.
func FuzzDecode(f *testing.F) {
	key := "bounds?n=4&pd=0.2"
	body := []byte(`{"upper":3.6}` + "\n")
	f.Add(encode(key, body), key)
	f.Add([]byte(fmt.Sprintf("capcas/v1 +%d\n%s%s", len(key), key, body)), key)
	f.Add([]byte(fmt.Sprintf("capcas/v2 %d %d 00000000\n%s%s", len(key), len(body), key, body)), key)
	f.Add([]byte("capcas/v2 -1 99 deadbeef\n"), "")
	f.Fuzz(func(t *testing.T, raw []byte, key string) {
		if body, ok := decode(raw, key); ok && !bytes.Equal(encode(key, body), raw) {
			t.Fatalf("decode accepted %q for key %q, but encode writes %q", raw, key, encode(key, body))
		}
		if body, ok := decode(encode(key, raw), key); !ok || !bytes.Equal(body, raw) {
			t.Fatalf("round trip of body %q under key %q: ok=%v body=%q", raw, key, ok, body)
		}
	})
}

// servedFromSlot reports whether some segment in dir has a slot of
// key's tag whose location holds exactly encode(key, body).
func servedFromSlot(t *testing.T, dir, key string, body []byte) bool {
	t.Helper()
	want, a := encode(key, body), addressOf(key)
	for _, path := range segFiles(t, dir) {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+slotBytes <= tableBytes && i+slotBytes <= len(file); i += slotBytes {
			if binary.NativeEndian.Uint64(file[i:]) != a.tag {
				continue
			}
			loc := binary.NativeEndian.Uint64(file[i+8:])
			off, n := loc>>lenBits, loc&maxRecord
			if off+n <= uint64(len(file)) && bytes.Equal(file[off:off+n], want) {
				return true
			}
		}
	}
	return false
}

// FuzzSegment holds the store to its contract over segment files any
// member, crash or disk could leave: a table filled with one byte,
// with arbitrary slot bytes from the key's home slot on, then
// arbitrary record bytes. Open, Get and Put never panic and every
// probe ends; a served body is always one whose encoding sits at a
// slot of the key's tag, and after a Put the key always reads back.
func FuzzSegment(f *testing.F) {
	key := "bounds?n=4&pd=0.2"
	body := []byte(`{"upper":3.6}` + "\n")
	rec := encode(key, body)
	slotFor := func(off, n uint64) []byte {
		b := binary.NativeEndian.AppendUint64(nil, addressOf(key).tag)
		return binary.NativeEndian.AppendUint64(b, off<<lenBits|n)
	}
	f.Add(byte(0), slotFor(tableBytes, uint64(len(rec))), rec, key)            // a valid segment
	f.Add(byte(0xff), []byte(nil), rec, key)                                   // a table of all ones
	f.Add(byte(0), slotFor(tableBytes+1<<20, uint64(len(rec))), rec, key)      // a slot past EOF
	f.Add(byte(0), slotFor(tableBytes, maxRecord), rec, key)                   // a length of 2^24-1
	f.Add(byte(0), append(slotFor(tableBytes, 7), slotFor(0, 0)...), rec, key) // damage, then an empty location
	f.Fuzz(func(t *testing.T, fill byte, slots, records []byte, key string) {
		dir := t.TempDir()
		file := bytes.Repeat([]byte{fill}, tableBytes)
		home := int(addressOf(key).home) * slotBytes
		for i, b := range slots[:min(len(slots), tableBytes)] {
			file[(home+i)%tableBytes] = b
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000000"), append(file, records...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer drop(s)
		if got, ok := s.Get(key); ok && !servedFromSlot(t, dir, key, got) {
			t.Fatalf("served %q for %q, which no slot of its tag locates", got, key)
		}
		s.Put(key, []byte("fresh"))
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("%q misses after a Put: %+v", key, s.Stats())
		}
		if !servedFromSlot(t, dir, key, got) {
			t.Fatalf("served %q for %q after a Put, which no slot of its tag locates", got, key)
		}
	})
}

func TestNoTempFilesSurviveAndNoTornReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "bounds?n=9&pd=0.3&pf=0.02"
	body := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB

	// Hammer one entry from writers while readers verify they only
	// ever see complete, verified bodies (a slot is published only
	// after its record is written).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Put(key, body)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, ok := s.Get(key); ok && !bytes.Equal(got, body) {
					t.Errorf("torn read: %d bytes", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("readers saw corrupt entries: %+v", st)
	}

	// After the dust settles the directory holds exactly the entry:
	// the segment's temp file was linked and removed, and 200 puts of
	// one key publish one slot.
	if tmps := tempFiles(t, dir); tmps != 0 {
		t.Fatalf("%d temp files left behind", tmps)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("len after hammer: %d err=%v", n, err)
	}
}

// tempFiles counts the .tmp-* files under dir.
func tempFiles(t *testing.T, dir string) int {
	t.Helper()
	tmps := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasPrefix(info.Name(), ".tmp-") {
			tmps++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestReaderFindsNewSegmentsAndAppends opens a reader before any
// segment exists: its miss must find the segment a writer makes later,
// and then the writer's next append through the mapping it holds.
func TestReaderFindsNewSegmentsAndAppends(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("bounds?n=4&pd=0.1"); ok {
		t.Fatal("hit on an empty store")
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"bounds?n=4&pd=0.1", "bounds?n=4&pd=0.2"} {
		w.Put(key, []byte(key))
		if got, ok := r.Get(key); !ok || string(got) != key {
			t.Fatalf("reader after put %d: ok=%v got=%q", i, ok, got)
		}
	}
	if n := len(*r.segs.Load()); n != 1 {
		t.Fatalf("reader maps %d segments, want the writer's one", n)
	}
}

// testKey and testBody name entry i of the bulk tests.
func testKey(prefix string, i int) string { return prefix + strconv.Itoa(i) }
func testBody(key string) []byte          { return []byte("body of " + key) }

func TestReopenServesRetiredSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*retireLoad + 100
	for i := 0; i < n; i++ {
		k := testKey("bounds?n=4&pd=", i)
		s.Put(k, testBody(k))
	}
	if st := s.Stats(); st.Puts != n || st.PutErrors != 0 {
		t.Fatalf("stats after %d puts: %+v", n, st)
	}
	if segs := segFiles(t, dir); len(segs) != 3 {
		t.Fatalf("segments %v, want two retired at half load and one open", segs)
	}
	drop(s)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := testKey("bounds?n=4&pd=", i)
		if got, ok := r.Get(k); !ok || !bytes.Equal(got, testBody(k)) {
			t.Fatalf("reopened store, entry %d: ok=%v got=%q", i, ok, got)
		}
	}
	if got, err := r.Len(); err != nil || got != n {
		t.Fatalf("len %d err=%v, want %d", got, err, n)
	}
}

func TestTruncatedLastRecordHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, last := "bounds?n=4&pd=0.1", "bounds?n=4&pd=0.2"
	s.Put(first, testBody(first))
	s.Put(last, testBody(last))
	drop(s)
	seg := filepath.Join(dir, "seg-000000")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get(first); !ok || !bytes.Equal(got, testBody(first)) {
		t.Fatalf("untouched record: ok=%v got=%q", ok, got)
	}
	if got, ok := r.Get(last); ok {
		t.Fatalf("truncated record served %q", got)
	}
	r.Put(last, testBody(last))
	if got, ok := r.Get(last); !ok || !bytes.Equal(got, testBody(last)) {
		t.Fatalf("healed record: ok=%v got=%q", ok, got)
	}
	if st := r.Stats(); st.Corrupt != 1 || st.Hits != 2 {
		t.Fatalf("stats: %+v, want the truncated record counted corrupt once", st)
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("segments %v, want the healed one alone", segs)
	}
}

// waitUnlocked runs the collector until no Store holds the segment at
// path, or fails the test after ten seconds.
func waitUnlocked(t *testing.T, path string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		f.Close()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still locked 10 s after its Store was dropped: %v", path, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// putOnce opens a Store, puts one entry and drops the Store.
func putOnce(t *testing.T, dir, key string) {
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key, testBody(key))
	if st := s.Stats(); st.Puts != 1 {
		t.Fatalf("put %q: %+v", key, st)
	}
}

// TestDroppedStoresReuseOneSegment restarts a writer 20 times: each
// dropped Store's finalizer releases its segment, so the next one takes
// it instead of making another. Two live Stores write two segments.
func TestDroppedStoresReuseOneSegment(t *testing.T) {
	dir := t.TempDir()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		putOnce(t, dir, testKey("bounds?n=5&pd=", i))
		waitUnlocked(t, filepath.Join(dir, "seg-000000"))
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("%d rounds left segments %v, want one", rounds, segs)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		k := testKey("bounds?n=5&pd=", i)
		if got, ok := r.Get(k); !ok || !bytes.Equal(got, testBody(k)) {
			t.Fatalf("round %d's entry: ok=%v got=%q", i, ok, got)
		}
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("bounds?n=6&pd=0.1", []byte("a"))
	b.Put("bounds?n=6&pd=0.2", []byte("b"))
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Fatalf("two live writers left segments %v, want two", segs)
	}
	if got, ok := a.Get("bounds?n=6&pd=0.2"); !ok || string(got) != "b" {
		t.Fatalf("a reads b's entry: ok=%v got=%q", ok, got)
	}
	if got, ok := b.Get("bounds?n=6&pd=0.1"); !ok || string(got) != "a" {
		t.Fatalf("b reads a's entry: ok=%v got=%q", ok, got)
	}
}

// TestPutWithoutDirectoryCountsAnError removes the directory after
// Open: the Put that would make the first segment counts one put error
// and no put, and later Gets miss.
func TestPutWithoutDirectoryCountsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	const key = "bounds?n=4&pd=0.1"
	s.Put(key, []byte("lost"))
	for i := 0; i < 2; i++ {
		if got, ok := s.Get(key); ok {
			t.Fatalf("get %d served %q from a removed directory", i, got)
		}
	}
	if st := s.Stats(); st.Puts != 0 || st.PutErrors != 1 || st.Misses != 2 {
		t.Fatalf("stats: %+v, want 1 put error, no put and 2 misses", st)
	}
	if _, err := s.Len(); err == nil {
		t.Fatal("len of a removed directory reported no error")
	}
}

// TestShortSegmentIsSkipped leaves a file shorter than a table under
// the first segment name: mapping it would fault, so the store skips
// it and writes the next number.
func TestShortSegmentIsSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000000"), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "bounds?n=4&pd=0.1"
	if _, ok := s.Get(key); ok {
		t.Fatal("hit from a short segment")
	}
	s.Put(key, []byte("ok"))
	if got, ok := s.Get(key); !ok || string(got) != "ok" {
		t.Fatalf("after put: ok=%v got=%q", ok, got)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000001")); err != nil {
		t.Fatalf("the put did not take the next number: %v", err)
	}
}

// TestUnopenableSegmentIsRetried puts a file that cannot be opened (a
// socket) under the second segment name: a miss must not pin that
// number as empty, so once a real segment takes its place the next Get
// maps it.
func TestUnopenableSegmentIsRetried(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put("bounds?n=4&pd=0.1", []byte("first"))
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get("bounds?n=4&pd=0.1"); !ok || string(got) != "first" {
		t.Fatalf("first segment: ok=%v got=%q", ok, got)
	}
	second := filepath.Join(dir, "seg-000001")
	l, err := net.Listen("unix", second)
	if err != nil {
		t.Skipf("no unix socket to stand in for an unopenable file: %v", err)
	}
	const key = "bounds?n=4&pd=0.2"
	if _, ok := r.Get(key); ok {
		t.Fatal("hit before the second segment exists")
	}
	l.Close() // removes the socket file
	o, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	o.Put(key, []byte("second"))
	if err := os.Rename(filepath.Join(other, "seg-000000"), second); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get(key); !ok || string(got) != "second" {
		t.Fatalf("after the second segment appeared: ok=%v got=%q", ok, got)
	}
}

// TestNewSegmentTableIsAllocated checks that a new segment's table has
// no hole: the writer stores into the mapping, and a store into a hole
// on a full disk would fault the process instead of failing a Put.
func TestNewSegmentTableIsAllocated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("bounds?n=4&pd=0.1", []byte("ok"))
	var st syscall.Stat_t
	if err := syscall.Stat(filepath.Join(dir, "seg-000000"), &st); err != nil {
		t.Fatal(err)
	}
	if got := int64(st.Blocks) * 512; got < tableBytes {
		t.Fatalf("segment holds %d allocated bytes, want at least its %d-byte table", got, tableBytes)
	}
}

// TestIndexStaysOffHeap pins where the index lives: the mapped slot
// tables, not the Go heap. 50,000 puts must grow the live heap by less
// than 512 KiB; an in-memory map of 50,000 entries alone takes more.
func TestIndexStaysOffHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("7"), 700)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 50000
	for i := 0; i < n; i++ {
		s.Put(testKey("bounds?n=4&pd=0.", i), body)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.Puts != n || st.PutErrors != 0 {
		t.Fatalf("stats after %d puts: %+v", n, st)
	}
	grew := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("HeapInuse grew by %d bytes over %d puts", grew, n)
	if grew >= 512<<10 {
		t.Fatalf("HeapInuse grew by %d bytes over %d puts, want under 512 KiB", grew, n)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// benchBody is the size of a cold-grid point's response body.
var benchBody = bytes.Repeat([]byte("7"), 700)

// benchKeys returns n distinct cold-grid-like keys.
func benchKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bounds?n=4&pd=%s%06d&pf=0.01", prefix, i)
	}
	return keys
}

// BenchmarkPut times storing a new entry: every iteration puts a key
// the fresh store has not seen, so each is a probe of every table, one
// append and a slot publish (and, every 32,768 puts, a new segment).
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys("0.", b.N)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for _, key := range keys {
		s.Put(key, benchBody)
	}
	b.StopTimer()
	if st := s.Stats(); st.Puts != int64(b.N) || st.PutErrors != 0 {
		b.Fatalf("stats %+v after %d puts", st, b.N)
	}
}

// BenchmarkGet times reading back an entry through the page cache: a
// probe of the mapped table and one pread, cycling over 1024 distinct
// entries put beforehand.
func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys("0.", 1024)
	for _, key := range keys {
		s.Put(key, benchBody)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if body, ok := s.Get(keys[i%len(keys)]); !ok || len(body) != len(benchBody) {
			b.Fatalf("get %d: ok=%v, %d bytes", i, ok, len(body))
		}
	}
}

// BenchmarkGetMiss times cold-grid's per-point miss of a key never
// seen before: a probe of every mapped table, each ending at an empty
// slot, then the stat that looks for a newer segment. The store never
// compacts, so the cost grows with the number of segments: one holding
// 1024 entries, and four retired at half load.
func BenchmarkGetMiss(b *testing.B) {
	for _, c := range []struct{ segments, entries int }{{1, 1024}, {4, 4 * retireLoad}} {
		s, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for _, key := range benchKeys("0.", c.entries) {
			s.Put(key, []byte(key))
		}
		if n := len(*s.segs.Load()); n != c.segments {
			b.Fatalf("%d entries filled %d segments, want %d", c.entries, n, c.segments)
		}
		b.Run(fmt.Sprintf("segments=%d", c.segments), func(b *testing.B) {
			keys := benchKeys("1.", b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i, key := range keys {
				if _, ok := s.Get(key); ok {
					b.Fatalf("get %d: hit", i)
				}
			}
		})
	}
}
