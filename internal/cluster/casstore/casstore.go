// Package casstore is a content-addressed on-disk result store for
// capserver's deterministic response bodies (it implements
// capserver.ResultStore). The members of a capserver cluster share one
// store directory, so any member can serve any cached point and a
// restarted member warm-starts from disk instead of recomputing its
// shard.
//
// Layout. The directory holds append-only segment files seg-000000,
// seg-000001 and so on, numbered densely from 0. A segment opens with
// a table of 65,536 16-byte slots (1 MiB, written in full when the
// segment is made) and continues with records. A record is one entry
// in encode's layout: a header line, the key and the body, checked by
// CRC-32C. A slot holds an 8-byte tag taken from the key's SHA-256
// (never 0, which marks an empty slot) and the record's offset and
// length, both in native byte order. A key's slots are probed linearly
// from a home slot taken from other bits of the same hash.
//
// One writer per segment. A Store takes a segment at its first Put,
// not at Open, so set-ups and readers create nothing. It takes the
// newest segment below half load that no live Store holds, by a
// non-blocking exclusive flock, or else creates one: a temp file whose
// table is written out as zeros, then linked to the first free number,
// so no reader ever sees a short table and no store into the mapping
// needs a block from the filesystem (on a full disk that would fault
// the process; the zeros' write fails as an ordinary put error). A
// Put appends one record with pwrite and then publishes its slot with
// two atomic 8-byte stores into the shared mapping, the location first
// and the tag second, so a reader that sees the tag finds a complete
// record. At half load the writer leaves its segment for another.
// Bodies are pure functions of their keys, so a key two members wrote
// holds the same bytes in both records.
//
// Reads. Every Store maps every segment's table shared. A Get probes
// the tables newest first with atomic loads, reads a tag match with
// one pread and serves it only if decode verifies it for the key. A
// damaged record reads as a miss, and the next Put of its key heals
// the slot. Appends to a segment already mapped appear through the
// mapping. A miss takes no lock: it checks for the next segment number
// with one stat, and only if that file exists does it take the
// discovery lock and map it. The mapped tables are the whole index;
// nothing on the Go heap grows with the entries. A Store that is no
// longer referenced releases its mappings and descriptors, and with
// them its segment's lock, through a finalizer; no body a Get returns
// aliases a mapping.
//
// The store never calls fsync and never compacts: a damaged or
// superseded record stays where it was written. Entries of the earlier
// one-file-per-key layout are not read; they miss once and are
// rewritten. Mmap and flock make the package unix-only, and a segment
// file must not be truncated into its table while a Store maps it.
package casstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// magic tags every entry; bump on layout changes. Entries of any other
// layout read as misses and are rewritten by the next Put.
const magic = "capcas/v2"

// The segment layout. A slot's location word packs the record's offset
// above its length.
const (
	tableSlots = 1 << 16
	slotBytes  = 16
	tableBytes = tableSlots * slotBytes
	retireLoad = tableSlots / 2 // a writer leaves its segment at half load
	lenBits    = 24
	maxRecord  = 1<<lenBits - 1
	maxEnd     = 1 << (64 - lenBits) // no record may end past this offset
)

// castagnoli is the CRC-32C table entries checksum their bodies with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroTable is a new segment's table, written out in full so that every
// block the mapping stores into is allocated before the segment is
// linked.
var zeroTable [tableBytes]byte

// errNotSegment marks a file that can never be a segment: not a
// regular file, or shorter than a table.
var errNotSegment = errors.New("not a segment")

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits      int64 // Get served a verified record
	Misses    int64 // Get met no record of its key
	Corrupt   int64 // Get met a record of its key that failed verification
	Puts      int64 // Puts that left the entry stored
	PutErrors int64 // failed writes (best-effort: the answer recomputes)
}

// Store is the on-disk result store. All methods are safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	dir string

	// segs holds every segment this Store has mapped for reading, in
	// number order, so its length is the next number to look for.
	// Readers load it without a lock; discovery replaces it under disc.
	segs atomic.Pointer[[]*segment]
	disc sync.Mutex

	// The writer, under wmu: the segment this Store's Puts append to
	// (nil before the first Put), where its next record goes and how
	// many of its slots are in use.
	wmu  sync.Mutex
	w    *segment
	end  int64
	used int

	hits, misses, corrupt, puts, putErrors atomic.Int64
}

// Open prepares the store directory (creating it if needed). It maps
// and creates no segment.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("casstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("casstore: %v", err)
	}
	s := &Store{dir: dir}
	s.segs.Store(new([]*segment))
	runtime.SetFinalizer(s, (*Store).release)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// address is a key's place in every segment table.
type address struct {
	tag  uint64 // never 0
	home uint64 // the first slot probed
}

func addressOf(key string) address {
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(key), len(key)))
	a := address{
		tag:  binary.LittleEndian.Uint64(sum[:8]),
		home: binary.LittleEndian.Uint64(sum[8:16]) % tableSlots,
	}
	if a.tag == 0 {
		a.tag = 1
	}
	return a
}

// segment is one segment file as a Store maps it: a descriptor and
// the slot table. A number whose file can never be a segment keeps a
// segment with no table, so the numbering stays dense.
type segment struct {
	f     *os.File
	table []byte
}

// segPath names segment n: seg- and at least six digits.
func (s *Store) segPath(n int) string {
	num := strconv.Itoa(n)
	return s.dir + "/seg-" + "00000"[min(len(num)-1, 5):] + num
}

// openSegment opens and maps segment n: read-only, or read-write for
// its writer.
func (s *Store) openSegment(n int, flag int) (*segment, error) {
	f, err := os.OpenFile(s.segPath(n), flag, 0)
	if err != nil {
		return nil, err
	}
	g, err := mapSegment(f, flag == os.O_RDWR)
	if err != nil {
		f.Close()
	}
	return g, err
}

// mapSegment maps f's slot table shared. A file shorter than a table
// is not a segment: mapping it would fault past its end.
func mapSegment(f *os.File, writable bool) (*segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() || fi.Size() < tableBytes {
		return nil, fmt.Errorf("casstore: %s: %w", f.Name(), errNotSegment)
	}
	prot := syscall.PROT_READ
	if writable {
		prot |= syscall.PROT_WRITE
	}
	table, err := syscall.Mmap(int(f.Fd()), 0, tableBytes, prot, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("casstore: mapping %s: %v", f.Name(), err)
	}
	return &segment{f: f, table: table}, nil
}

// close unmaps the table and closes the descriptor; a lock taken on
// the descriptor lasts until both are gone.
func (g *segment) close() {
	if g.table != nil {
		// Munmap fails only for a slice Mmap did not return.
		_ = syscall.Munmap(g.table)
		g.table = nil
	}
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
}

// slot returns the addresses of slot i's tag and location words.
func (g *segment) slot(i uint64) (tag, loc *uint64) {
	p := unsafe.Pointer(&g.table[i%tableSlots*slotBytes])
	return (*uint64)(p), (*uint64)(unsafe.Add(p, 8))
}

// load counts the table's slots in use.
func (g *segment) load() int {
	n := 0
	for i := uint64(0); i < tableSlots; i++ {
		if tag, _ := g.slot(i); atomic.LoadUint64(tag) != 0 {
			n++
		}
	}
	return n
}

// read returns the record a location names, with one pread. A read
// cut short by the end of the file returns nothing, which fails
// verification: the bytes there may be a whole record, but not the
// one the location names. A damaged location can name up to 16 MiB,
// so a record longer than 64 KiB is first checked against the file's
// size.
func (g *segment) read(loc uint64) []byte {
	off, n := int64(loc>>lenBits), int64(loc&maxRecord)
	if n > 1<<16 {
		if fi, err := g.f.Stat(); err != nil || off+n > fi.Size() {
			return nil
		}
	}
	raw := make([]byte, n)
	if k, _ := g.f.ReadAt(raw, off); k < len(raw) {
		return nil
	}
	return raw
}

// probed is what a walk of one table found for a key.
type probed struct {
	body    []byte // the first record verified for the key
	found   bool
	damaged bool // a record of the key failed verification
	// slot is the first damaged slot of the key, else the empty slot
	// that ended the walk, else -1: where a Put of the key goes.
	slot int
}

// probe walks key's slots in g's table, from its home slot to the
// first empty slot and never past one table's worth of slots, so a
// damaged table cannot loop. A record that verifies for another key is
// a tag collision and the walk goes on; so it does past a damaged one.
func (g *segment) probe(a address, key string) probed {
	r := probed{slot: -1}
	for p := uint64(0); p < tableSlots; p++ {
		i := a.home + p
		tag, loc := g.slot(i)
		switch atomic.LoadUint64(tag) {
		case 0:
			if !r.damaged {
				r.slot = int(i % tableSlots)
			}
			return r
		case a.tag:
			raw := g.read(atomic.LoadUint64(loc))
			if body, ok := decode(raw, key); ok {
				r.body, r.found = body, true
				return r
			}
			if _, _, ok := parse(raw); !ok && !r.damaged {
				r.damaged, r.slot = true, int(i%tableSlots)
			}
		}
	}
	return r
}

// find probes the tables of segs, newest first, until one serves key.
func find(segs []*segment, a address, key string) (body []byte, found, damaged bool) {
	for i := len(segs) - 1; i >= 0 && !found; i-- {
		if segs[i].table != nil {
			r := segs[i].probe(a, key)
			body, found, damaged = r.body, r.found, damaged || r.damaged
		}
	}
	return body, found, damaged
}

// discover maps the segments numbered from known on and returns every
// segment mapped. The check for segment known is one stat and takes no
// lock; only if that file exists does discovery take its lock. A file
// that can never be a segment keeps its number as a segment with no
// table; any other failure to open or map one (a descriptor or memory
// limit) ends discovery there, so a later miss tries it again.
func (s *Store) discover(known int) []*segment {
	var st syscall.Stat_t
	if syscall.Stat(s.segPath(known), &st) != nil {
		return *s.segs.Load()
	}
	s.disc.Lock()
	defer s.disc.Unlock()
	segs := *s.segs.Load()
	for n := len(segs); ; n++ {
		g, err := s.openSegment(n, os.O_RDONLY)
		if errors.Is(err, errNotSegment) {
			g = &segment{}
		} else if err != nil {
			break
		}
		// Readers hold the old slice; never append into its array.
		segs = append(segs[:n:n], g)
	}
	s.segs.Store(&segs)
	return segs
}

// encode renders an entry: a header line naming the layout, the key's
// and the body's byte lengths and the body's CRC-32C, then the key,
// then the body. Embedding the key makes Get verification exact (a
// tag collision can never alias another point); the lengths and the
// checksum make a truncated or bit-flipped body read as a miss, never
// as a wrong answer. Segments stay debuggable with less.
func encode(key string, body []byte) []byte {
	raw := make([]byte, 0, len(key)+len(body)+64)
	raw = appendHeader(raw, len(key), len(body), crc32.Checksum(body, castagnoli))
	raw = append(raw, key...)
	return append(raw, body...)
}

// appendHeader appends the header line "capcas/v2 <keylen> <bodylen>
// <crc32c as 8 lowercase hex digits>\n".
func appendHeader(dst []byte, klen, blen int, sum uint32) []byte {
	dst = append(dst, magic...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(klen), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(blen), 10)
	dst = append(dst, ' ')
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], sum)
	dst = hex.AppendEncode(dst, b[:])
	return append(dst, '\n')
}

// decode parses and verifies an entry, returning the body. It accepts
// exactly the bytes encode writes for key.
func decode(raw []byte, key string) ([]byte, bool) {
	k, body, ok := parse(raw)
	if !ok || string(k) != key {
		return nil, false
	}
	return body, true
}

// parse verifies an entry whatever its key: the header line must be
// the one encode would render, the entry must end where the header's
// lengths say, and the body must match its checksum. It returns the
// embedded key and the body.
func parse(raw []byte) (key, body []byte, ok bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, nil, false
	}
	line, ok := bytes.CutPrefix(raw[:nl], []byte(magic+" "))
	kf, line, ok1 := bytes.Cut(line, []byte(" "))
	bf, hf, ok2 := bytes.Cut(line, []byte(" "))
	var sum [4]byte
	if !ok || !ok1 || !ok2 || len(hf) != hex.EncodedLen(len(sum)) {
		return nil, nil, false
	}
	klen, kerr := strconv.Atoi(string(kf))
	blen, berr := strconv.Atoi(string(bf))
	_, herr := hex.Decode(sum[:], hf)
	start := nl + 1
	if kerr != nil || berr != nil || herr != nil || klen < 0 || blen < 0 ||
		klen > len(raw) || blen > len(raw) || start+klen+blen != len(raw) {
		return nil, nil, false
	}
	crc := binary.BigEndian.Uint32(sum[:])
	var hdr [64]byte
	if !bytes.Equal(appendHeader(hdr[:0], klen, blen, crc), raw[:start]) {
		return nil, nil, false
	}
	body = raw[start+klen:]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, nil, false
	}
	return raw[start : start+klen], body, true
}

// Get returns the stored body for a canonical key. A record of the key
// that fails verification counts as corrupt once for the Get, and the
// probe goes on, so a healed copy still serves; without one the Get
// reads as a miss, the caller recomputes and Put heals the entry.
func (s *Store) Get(key string) ([]byte, bool) {
	defer runtime.KeepAlive(s) // the finalizer must not unmap a table mid-probe
	a := addressOf(key)
	segs := *s.segs.Load()
	body, found, damaged := find(segs, a, key)
	if !found {
		if all := s.discover(len(segs)); len(all) > len(segs) {
			var d bool
			body, found, d = find(all[len(segs):], a, key)
			damaged = damaged || d
		}
	}
	if damaged {
		s.corrupt.Add(1)
	}
	switch {
	case found:
		s.hits.Add(1)
	case !damaged:
		s.misses.Add(1)
	}
	return body, found
}

// Put stores the body for a canonical key: a no-op when the key
// already reads back verified, otherwise one append and a slot publish.
// Best-effort: an error is counted, never surfaced — a lost write costs
// one future recompute.
func (s *Store) Put(key string, body []byte) {
	defer runtime.KeepAlive(s)
	if err := s.put(key, body); err != nil {
		s.putErrors.Add(1)
		return
	}
	s.puts.Add(1)
}

func (s *Store) put(key string, body []byte) error {
	a := addressOf(key)
	if _, found, _ := find(*s.segs.Load(), a, key); found {
		return nil
	}
	rec := encode(key, body)
	if len(rec) > maxRecord {
		return fmt.Errorf("casstore: %d-byte entry exceeds %d bytes", len(rec), maxRecord)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.w == nil || s.used >= retireLoad {
		if err := s.claim(); err != nil {
			return err
		}
	}
	r := s.w.probe(a, key)
	switch {
	case r.found:
		return nil
	case r.slot < 0:
		return fmt.Errorf("casstore: no free slot for %q", key)
	case s.end+int64(len(rec)) > maxEnd:
		return fmt.Errorf("casstore: segment offset %d out of range", s.end)
	}
	if _, err := s.w.f.WriteAt(rec, s.end); err != nil {
		return err
	}
	tag, loc := s.w.slot(uint64(r.slot))
	atomic.StoreUint64(loc, uint64(s.end)<<lenBits|uint64(len(rec)))
	if !r.damaged { // a healed slot already carries the tag
		atomic.StoreUint64(tag, a.tag)
		s.used++
	}
	s.end += int64(len(rec))
	return nil
}

// claim gives the writer a segment below half load, releasing the one
// it held: the newest such segment that no live Store holds, else a
// new one. The caller holds wmu.
func (s *Store) claim() error {
	if s.w != nil {
		s.w.close()
		s.w = nil
	}
	segs := s.discover(len(*s.segs.Load()))
	for n := len(segs) - 1; n >= 0; n-- {
		if segs[n].table != nil && segs[n].load() < retireLoad && s.take(n) {
			return nil
		}
	}
	return s.create(len(segs))
}

// take claims segment n if no live Store holds it and, once locked, it
// is still below half load.
func (s *Store) take(n int) bool {
	g, err := s.openSegment(n, os.O_RDWR)
	if err != nil {
		return false
	}
	if syscall.Flock(int(g.f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil {
		if fi, err := g.f.Stat(); err == nil {
			if used := g.load(); used < retireLoad {
				s.w, s.end, s.used = g, fi.Size(), used
				return true
			}
		}
	}
	g.close()
	return false
}

// create makes a new segment and claims it: a temp file holding a
// table of zeros and locked, then linked to the first free number from
// n on.
func (s *Store) create(n int) error {
	f, err := os.CreateTemp(s.dir, ".tmp-seg-*")
	if err != nil {
		return err
	}
	// The segment lives on under its number, so the temp name goes
	// whatever happens; a leftover one only wastes space.
	defer func() { _ = os.Remove(f.Name()) }()
	// CreateTemp makes the file 0600; other member processes sharing
	// the directory must read it whatever their umask.
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.WriteAt(zeroTable[:], 0)
	}
	if err == nil {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	}
	var g *segment
	if err == nil {
		g, err = mapSegment(f, true)
	}
	if err != nil {
		f.Close()
		return err
	}
	for ; ; n++ {
		if err = os.Link(f.Name(), s.segPath(n)); !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	if err != nil {
		g.close()
		return err
	}
	s.w, s.end, s.used = g, tableBytes, 0
	s.discover(len(*s.segs.Load()))
	return nil
}

// Len returns the number of entries the segment tables index (a test
// and warm-start diagnostic, not a hot-path operation). A key that two
// members wrote into two segments counts twice.
func (s *Store) Len() (int, error) {
	defer runtime.KeepAlive(s)
	if _, err := os.Stat(s.dir); err != nil {
		return 0, err
	}
	n := 0
	for _, g := range s.discover(len(*s.segs.Load())) {
		if g.table != nil {
			n += g.load()
		}
	}
	return n, nil
}

// Stats snapshots store activity.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
	}
}

// release unmaps every segment and closes its descriptors, which drops
// the writer's lock. It is the Store's finalizer.
func (s *Store) release() {
	for _, g := range *s.segs.Load() {
		g.close()
	}
	if s.w != nil {
		s.w.close()
	}
}
