package casstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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

func TestCorruptEntryReadsAsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "trace?n=3&seed=7"
	body := []byte(`{"upper":3.6}` + "\n")
	s.Put(key, body)
	_, path := s.entryPath(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[bytes.LastIndexByte(flipped, '.')] ^= 1 // "3.6" -> "3/6"
	sum := fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))
	v2 := func(klen, blen, sum string) []byte {
		return []byte(fmt.Sprintf("capcas/v2 %s %s %s\n%s%s", klen, blen, sum, key, body))
	}
	klen, blen := fmt.Sprint(len(key)), fmt.Sprint(len(body))

	cases := []struct {
		name string
		raw  []byte
	}{
		{"not an entry", []byte("not an entry")},
		{"bogus length", []byte("capcas/v1 bogus\nxx")},
		{"length past the end", []byte("capcas/v1 9999\nshort")},
		{"embedded key mismatch", encode("trace?n=3&seed=8", body)},
		{"flipped body bit", flipped},
		{"truncated body", good[:len(good)-len(body)/2]},
		{"trailing bytes", append(append([]byte(nil), good...), 'x')},
		{"signed v1 key length", []byte(fmt.Sprintf("capcas/v1 +%d\n%s%s", len(key), key, body))},
		{"signed key length", v2("+"+klen, blen, sum)},
		{"zero-padded body length", v2(klen, "0"+blen, sum)},
		{"upper-case checksum", v2(klen, blen, strings.ToUpper(sum))},
		{"short checksum", v2(klen, blen, sum[1:])},
		{"wrong checksum", v2(klen, blen, "00000000")},
		// Last, so the recovery below shows a v1 entry being rewritten.
		{"well-formed v1 entry", []byte(fmt.Sprintf("capcas/v1 %d\n%s%s", len(key), key, body))},
	}
	if !bytes.Equal(v2(klen, blen, sum), good) {
		t.Fatalf("fixture header differs from encode:\n%q\n%q", v2(klen, blen, sum), good)
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Errorf("%s: corrupt entry %q served as a hit with body %q", c.name, c.raw, got)
		}
	}
	if st := s.Stats(); st.Corrupt != int64(len(cases)) {
		t.Fatalf("corrupt count: %+v, want %d", st, len(cases))
	}

	// Recovery: a fresh Put overwrites the bad entry atomically.
	s.Put(key, []byte("good again"))
	got, ok := s.Get(key)
	if !ok || string(got) != "good again" {
		t.Fatalf("recovery: ok=%v got=%q", ok, got)
	}
}

// FuzzDecode holds decode to its contract over arbitrary entry files:
// it never panics, it accepts only the exact bytes encode writes for
// the key, and every encoded entry decodes to its body.
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

func TestNoTempFilesSurviveAndNoTornReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "bounds?n=9&pd=0.3&pf=0.02"
	body := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB

	// Hammer one entry from writers while readers verify they only
	// ever see complete, verified bodies (rename atomicity).
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

	// After the dust settles the directory holds exactly the entry —
	// every temp file was renamed or removed.
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

// TestPutMakesFanOutAndCleansUpFailures covers Put's two slow paths: the
// first entry of a fan-out directory creates it, and a failed rename
// counts a put error and removes its temp file.
func TestPutMakesFanOutAndCleansUpFailures(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fresh = "bounds?n=4&pd=0.1"
	fan, _ := s.entryPath(fresh)
	if _, err := os.Stat(fan); !os.IsNotExist(err) {
		t.Fatalf("fan-out directory exists before the first put: %v", err)
	}
	s.Put(fresh, []byte("fresh"))
	if got, ok := s.Get(fresh); !ok || string(got) != "fresh" {
		t.Fatalf("put into a missing fan-out directory: ok=%v got=%q", ok, got)
	}

	// A directory squatting on the entry's path makes the rename fail.
	const blocked = "bounds?n=6&pd=0.1"
	_, path := s.entryPath(blocked)
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put(blocked, []byte("blocked"))
	if st := s.Stats(); st.Puts != 1 || st.PutErrors != 1 {
		t.Fatalf("stats after a failed rename: %+v, want 1 put and 1 put error", st)
	}
	if tmps := tempFiles(t, dir); tmps != 0 {
		t.Fatalf("%d temp files left behind", tmps)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
