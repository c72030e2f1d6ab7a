// Package cluster takes capserver from one process to N (DESIGN.md
// §11). The paper's capacity bounds are deterministic functions of a
// small parameter tuple, which makes the serving layer embarrassingly
// shardable: every canonicalized request key has exactly one owner,
// assigned by a consistent-hash ring over a static membership.
//
// The pieces:
//
//   - Ring: consistent hashing with virtual nodes over the
//     canonicalized request keyspace (the exact cache-key strings
//     capserver.Canonicalize produces);
//   - casstore (subpackage): a content-addressed on-disk result store
//     with atomic write-rename semantics, plugged into capserver's
//     ResultStore hook — nodes sharing a store directory can all serve
//     any cached point, and a restarted node warm-starts from disk;
//   - Node: the per-process router. Owned keys serve locally, and so
//     do non-owned keys the shared store already holds; other
//     non-owned keys forward to the owner over HTTP with a hedged
//     second request to the next replica after a deterministic delay,
//     bounded deterministic retry/backoff on node loss, and graceful
//     degradation to local compute (with an X-Capserver-Degraded
//     response header) when the owning shard is unreachable;
//   - StartProc and Testbed: the one member constructor, shared with
//     cmd/capserverd, and the in-process kill/restart cluster that the
//     compute-oracle, session-drain and alert-timeline fault harnesses
//     run on as workloads.
//
// Everything that decides placement or retry timing is deterministic:
// the ring hashes only static names, the hedge delay and backoff
// schedule are fixed configuration, and response bodies are pure
// functions of request parameters — which is what makes the
// byte-identity assertion against a single-node oracle meaningful.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Member is one cluster node: a stable name (the ring hashes names,
// never addresses, so re-addressing a node does not reshard the
// keyspace) and its base URL.
type Member struct {
	Name string
	URL  string
}

// Membership is the static cluster configuration. Ordering does not
// matter: the ring sorts names, so every node derives the identical
// key assignment from any permutation of the same membership.
type Membership struct {
	Members []Member
}

// Names returns the member names in sorted order.
func (m Membership) Names() []string {
	names := make([]string, len(m.Members))
	for i, mem := range m.Members {
		names[i] = mem.Name
	}
	sort.Strings(names)
	return names
}

// URL returns the base URL for a member name ("" if unknown).
func (m Membership) URL(name string) string {
	for _, mem := range m.Members {
		if mem.Name == name {
			return mem.URL
		}
	}
	return ""
}

// ParseMembership parses the static membership flag syntax
// "n1=http://host1:8081,n2=http://host2:8082,...". Names must be
// unique and non-empty. URLs are normalized to drop a trailing slash
// and must then be absolute http or https URLs with a host and no
// query or fragment, since the router forwards to base URL + request
// URI.
func ParseMembership(s string) (Membership, error) {
	var m Membership
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		rawURL = strings.TrimRight(strings.TrimSpace(rawURL), "/")
		if !ok || name == "" {
			return Membership{}, fmt.Errorf("cluster: membership entry %q is not name=url", part)
		}
		u, err := url.Parse(rawURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
			strings.ContainsAny(rawURL, "?#") {
			return Membership{}, fmt.Errorf("cluster: member %s URL %q is not an absolute http(s) URL with a host", name, rawURL)
		}
		if seen[name] {
			return Membership{}, fmt.Errorf("cluster: duplicate member name %q", name)
		}
		seen[name] = true
		m.Members = append(m.Members, Member{Name: name, URL: rawURL})
	}
	if len(m.Members) == 0 {
		return Membership{}, fmt.Errorf("cluster: membership %q lists no members", s)
	}
	return m, nil
}
