// Package casstore is a content-addressed on-disk result store for
// capserver's deterministic response bodies (it implements
// capserver.ResultStore). Every entry is one file whose path is
// derived from the SHA-256 of the canonical request key, written with
// atomic write-rename semantics: a writer creates a temp file in the
// target directory, writes header+body, then renames it into place.
// Rename is atomic on POSIX filesystems, so readers — including other
// node processes sharing the directory — always see either the old
// complete entry or the new complete entry, never a torn write, with
// no locking. Because response bodies are pure functions of their
// canonical keys, concurrent writers racing on one entry are writing
// identical bytes and last-rename-wins is harmless.
//
// This is what lets any node in a capserver cluster serve any cached
// point (nodes share the directory) and lets a restarted node
// warm-start from disk instead of recomputing its shard.
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
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// magic tags every entry file; bump on layout changes. Entries of any
// other layout read as misses and are rewritten by the next Put.
const magic = "capcas/v2"

// castagnoli is the CRC-32C table entries checksum their bodies with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits      int64 // Get found a valid entry
	Misses    int64 // Get found nothing
	Corrupt   int64 // Get found a file that failed verification
	Puts      int64 // successful writes
	PutErrors int64 // failed writes (best-effort: the answer recomputes)
}

// Store is the on-disk result store. All methods are safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	dir string

	hits, misses, corrupt, puts, putErrors atomic.Int64
}

// Open prepares the store directory (creating it if needed).
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("casstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("casstore: %v", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath fans entries out over 256 subdirectories keyed by the
// first address byte, keeping directory listings short at millions of
// cached points.
func (s *Store) entryPath(key string) (dir, path string) {
	sum := sha256.Sum256([]byte(key))
	addr := hex.EncodeToString(sum[:])
	dir = filepath.Join(s.dir, addr[:2])
	return dir, filepath.Join(dir, addr[2:])
}

// encode renders an entry: a header line naming the layout, the key's
// and the body's byte lengths and the body's CRC-32C, then the key,
// then the body. Embedding the key makes Get verification exact (a
// SHA-256 collision can never alias another point); the lengths and
// the checksum make a truncated or bit-flipped body read as a miss,
// never as a wrong answer. Entries stay debuggable with cat.
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
// exactly the bytes encode writes for key: the header line must be
// the one encode would render, the entry must end where the header's
// lengths say, the embedded key must equal key, and the body must
// match its checksum.
func decode(raw []byte, key string) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	line, ok := bytes.CutPrefix(raw[:nl], []byte(magic+" "))
	kf, line, ok1 := bytes.Cut(line, []byte(" "))
	bf, hf, ok2 := bytes.Cut(line, []byte(" "))
	var sum [4]byte
	if !ok || !ok1 || !ok2 || len(hf) != hex.EncodedLen(len(sum)) {
		return nil, false
	}
	klen, kerr := strconv.Atoi(string(kf))
	blen, berr := strconv.Atoi(string(bf))
	_, herr := hex.Decode(sum[:], hf)
	start := nl + 1
	if kerr != nil || berr != nil || herr != nil || klen < 0 || blen < 0 ||
		klen > len(raw) || blen > len(raw) || start+klen+blen != len(raw) {
		return nil, false
	}
	crc := binary.BigEndian.Uint32(sum[:])
	var hdr [64]byte
	if !bytes.Equal(appendHeader(hdr[:0], klen, blen, crc), raw[:start]) {
		return nil, false
	}
	body := raw[start+klen:]
	if string(raw[start:start+klen]) != key || crc32.Checksum(body, castagnoli) != crc {
		return nil, false
	}
	return body, true
}

// Get returns the stored body for a canonical key. A file that fails
// verification counts as corrupt and reads as a miss: the caller
// recomputes and Put overwrites the bad entry.
func (s *Store) Get(key string) ([]byte, bool) {
	_, path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, ok := decode(raw, key)
	if !ok {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return body, true
}

// Put stores the body for a canonical key with write-rename
// atomicity. Best-effort: an error is counted, never surfaced — a
// lost write costs one future recompute.
func (s *Store) Put(key string, body []byte) {
	dir, path := s.entryPath(key)
	if err := s.put(dir, path, encode(key, body)); err != nil {
		s.putErrors.Add(1)
		return
	}
	s.puts.Add(1)
}

func (s *Store) put(dir, path string, raw []byte) error {
	// The temp file lives in the destination directory so the rename
	// never crosses a filesystem boundary (cross-device renames are
	// copies, not atomic). The fan-out directory is made only when
	// creating the temp file finds it missing.
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			tmp, err = os.CreateTemp(dir, ".tmp-*")
		}
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(raw)
	if err == nil {
		// CreateTemp makes the file 0600; other member processes
		// sharing the directory must read it whatever their umask.
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		// The entry was never published; a leftover temp file only
		// wastes space, so a failed removal changes nothing.
		_ = os.Remove(tmp.Name())
	}
	return err
}

// Len walks the store and returns the number of entries on disk (a
// test and warm-start diagnostic, not a hot-path operation).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !bytes.HasPrefix([]byte(d.Name()), []byte(".tmp-")) {
			n++
		}
		return nil
	})
	return n, err
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
