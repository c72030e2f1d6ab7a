package casstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// The cross-process tests re-execute this test binary as writer
// children, as capserverd members share one store directory.

// helperEnv names the store directory a child serves; without it
// TestHelperProcess skips.
const helperEnv = "CASSTORE_HELPER_DIR"

// replyPrefix marks a child's answers among the test binary's output.
const replyPrefix = "casstore-child: "

// TestHelperProcess is the child of the cross-process tests. It opens
// a Store over $CASSTORE_HELPER_DIR and runs one command a line from
// stdin, answering each on stdout:
//
//	put <prefix> <n>  puts entries <prefix>0 .. <prefix>n-1 and answers
//	                  "ok <inode of the segment it writes>"
//	get <prefix> <n>  gets them and answers "ok" or "miss <key>"
func TestHelperProcess(t *testing.T) {
	dir := os.Getenv(helperEnv)
	if dir == "" {
		t.Skip("runs only as the child of a cross-process test")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var op, prefix string
		var n int
		if _, err := fmt.Sscan(in.Text(), &op, &prefix, &n); err != nil {
			t.Fatalf("command %q: %v", in.Text(), err)
		}
		reply := "ok"
		switch op {
		case "put":
			for i := 0; i < n; i++ {
				k := testKey(prefix, i)
				s.Put(k, testBody(k))
			}
			s.wmu.Lock()
			fi, err := s.w.f.Stat()
			s.wmu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			reply = fmt.Sprintf("ok %d", fi.Sys().(*syscall.Stat_t).Ino)
		case "get":
			for i := 0; i < n; i++ {
				k := testKey(prefix, i)
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, testBody(k)) {
					reply = "miss " + k
					break
				}
			}
		default:
			t.Fatalf("unknown command %q", in.Text())
		}
		fmt.Printf("%s%s\n", replyPrefix, reply)
	}
}

// child is a running TestHelperProcess.
type child struct {
	in  io.WriteCloser
	out *bufio.Scanner
}

// startChild starts a child over dir; the test's cleanup ends it and
// checks that it exited cleanly.
func startChild(t *testing.T, dir string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperProcess$")
	cmd.Env = append(os.Environ(), helperEnv+"="+dir)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		in.Close()
		if err := cmd.Wait(); err != nil {
			t.Errorf("child: %v", err)
		}
	})
	return &child{in: in, out: bufio.NewScanner(out)}
}

// do sends the child one command and returns its answer.
func (c *child) do(t *testing.T, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.in, cmd); err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	for c.out.Scan() {
		if reply, ok := strings.CutPrefix(c.out.Text(), replyPrefix); ok {
			if !strings.HasPrefix(reply, "ok") {
				t.Fatalf("%s: child answered %q", cmd, reply)
			}
			return reply
		}
	}
	t.Fatalf("%s: child exited without an answer: %v", cmd, c.out.Err())
	return ""
}

// getAll requires every entry <prefix>0 .. <prefix>n-1 to read back.
func getAll(t *testing.T, s *Store, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := testKey(prefix, i)
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, testBody(k)) {
			t.Fatalf("%s: ok=%v got=%q, stats %+v", k, ok, got, s.Stats())
		}
	}
}

// TestCrossProcessReaderSeesWriterAppends opens the reader before the
// writer process exists. It must read every entry the writer makes,
// including those appended after the reader mapped the segment.
func TestCrossProcessReaderSeesWriterAppends(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(testKey("a", 0)); ok {
		t.Fatal("hit on an empty store")
	}
	w := startChild(t, dir)
	w.do(t, "put a 50")
	getAll(t, r, "a", 50)
	w.do(t, "put b 50")
	getAll(t, r, "b", 50)
	if n := len(*r.segs.Load()); n != 1 {
		t.Fatalf("reader maps %d segments, want the writer's one", n)
	}
}

// TestCrossProcessWritersTakeSeparateSegments runs two writer processes
// at once: the second cannot take the segment the first holds, so it
// writes its own, and each reads the other's entries.
func TestCrossProcessWritersTakeSeparateSegments(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := startChild(t, dir), startChild(t, dir)
	segA := a.do(t, "put a 50")
	segB := b.do(t, "put b 50")
	if segA == segB {
		t.Fatalf("both writers write the segment with inode %q", strings.TrimPrefix(segA, "ok "))
	}
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Fatalf("segments %v, want one per writer", segs)
	}
	a.do(t, "get b 50")
	b.do(t, "get a 50")
	getAll(t, r, "a", 50)
	getAll(t, r, "b", 50)
}
