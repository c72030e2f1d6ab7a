package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
)

func TestRingDeterministicAcrossPermutations(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("bounds?n=%d&pd=0.2", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %q vs %q across permuted memberships", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"}, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("bounds?n=%d&pd=0.%03d&pf=0.01", i%12, i))]++
	}
	for _, name := range r.Members() {
		got := counts[name]
		// With 64 vnodes the per-member share stays within a loose
		// factor of the fair third; the point is no member is starved
		// or hot by an order of magnitude.
		if got < keys/9 || got > keys*2/3 {
			t.Fatalf("member %s owns %d of %d keys: ring badly imbalanced (%v)", name, got, keys, counts)
		}
	}
}

func TestRingMinimalMovementOnMemberLoss(t *testing.T) {
	full, err := NewRing([]string{"n1", "n2", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"n1", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("predict?n=%d&pd=0.%03d", i%9, i)
		was, is := full.Owner(key), reduced.Owner(key)
		if was == "n2" {
			continue // orphaned keys must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner; consistent hashing should move only the lost member's arcs", moved)
	}
}

func TestRingReplicasDistinctAndOwnerFirst(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("simulate?n=%d&seed=%d", i%7, i)
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("key %q: want 3 replicas, got %v", key, reps)
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("key %q: replicas %v do not start at owner %q", key, reps, r.Owner(key))
		}
		seen := map[string]bool{}
		for _, rep := range reps {
			if seen[rep] {
				t.Fatalf("key %q: duplicate replica in %v", key, reps)
			}
			seen[rep] = true
		}
	}
}

func TestRingRejectsBadMemberships(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewRing([]string{"n1", "n1"}, 64); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewRing([]string{"n1", ""}, 64); err == nil {
		t.Fatal("empty member name accepted")
	}
}

func TestParseMembership(t *testing.T) {
	m, err := ParseMembership("n1=http://h1:8081/, n2=http://h2:8082")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.URL("n1"); got != "http://h1:8081" {
		t.Fatalf("trailing slash not normalized: %q", got)
	}
	if got := m.URL("n2"); got != "http://h2:8082" {
		t.Fatalf("n2 url: %q", got)
	}
	if got := m.URL("nope"); got != "" {
		t.Fatalf("unknown member url: %q", got)
	}
	names := m.Names()
	if len(names) != 2 || names[0] != "n1" || names[1] != "n2" {
		t.Fatalf("names: %v", names)
	}
	for _, bad := range []string{
		"", "n1", "n1=", "=http://h", "n1=http://a,n1=http://b",
		"n1=/", "n1=///", "n1=h1:8081", "n1=http://", "n1=ftp://h",
		"n1=http://h?x=1", "n1=http://h#top", "n1=http://h#",
	} {
		if _, err := ParseMembership(bad); err == nil {
			t.Fatalf("membership %q accepted", bad)
		}
	}
}

// FuzzParseMembership holds the membership flag parser to its
// contract: it never panics, and every member it accepts has a unique
// non-empty name and a URL the router can forward to.
func FuzzParseMembership(f *testing.F) {
	for _, seed := range []string{
		"n1=http://h1:8081/, n2=http://h2:8082",
		"a=https://x/prefix//,b=http://[::1]:80",
		"n1=/", "n1=h1:8081", "n1=http://", "n1=a=b", " , ,n1=http://h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMembership(s)
		if err != nil {
			return
		}
		if len(m.Members) == 0 {
			t.Fatalf("%q: accepted with no members", s)
		}
		seen := make(map[string]bool)
		for _, mem := range m.Members {
			if mem.Name == "" || seen[mem.Name] {
				t.Fatalf("%q: empty or duplicate member name %q", s, mem.Name)
			}
			seen[mem.Name] = true
			u, err := url.Parse(mem.URL)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
				strings.HasSuffix(mem.URL, "/") || strings.ContainsAny(mem.URL, "?#") {
				t.Fatalf("%q: member %s has URL %q, want absolute http(s) with a host, no trailing slash, query or fragment",
					s, mem.Name, mem.URL)
			}
			if m.URL(mem.Name) != mem.URL {
				t.Fatalf("%q: URL(%s) = %q, want %q", s, mem.Name, m.URL(mem.Name), mem.URL)
			}
		}
	})
}
