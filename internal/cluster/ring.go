package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual node count. 64 points
// per member keeps the largest/smallest ownership arc within a few
// tens of percent for small clusters while the ring build and lookup
// stay trivially cheap. It is a constant because every member must
// build the same ring: a per-member value could only split it.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over static member names with
// virtual nodes. Placement is a pure function of the sorted member
// names and the virtual node count: every process in the cluster
// builds the identical ring from the identical membership, with no
// coordination. Adding or removing one member moves only the arcs
// adjacent to its virtual points, which is the property that makes a
// static-membership cluster restartable one node at a time without
// resharding the world.
type Ring struct {
	names  []string // sorted member names
	hashes []uint64 // sorted virtual point hashes
	owner  []int    // owner[i] indexes names for hashes[i]
}

// NewRing builds the ring with DefaultVirtualNodes points per member.
// Names must be unique and non-empty.
func NewRing(names []string) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	for _, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty ring member name")
		}
	}
	r := &Ring{names: sorted}
	type point struct {
		h     uint64
		owner int
	}
	points := make([]point, 0, len(sorted)*DefaultVirtualNodes)
	for i, name := range sorted {
		for v := 0; v < DefaultVirtualNodes; v++ {
			points = append(points, point{fnv64(name + "#" + strconv.Itoa(v)), i})
		}
	}
	// Ties (vanishingly rare with 64-bit FNV) break toward the lower
	// member index so the ring is still a pure function of the names.
	sort.Slice(points, func(a, b int) bool {
		if points[a].h != points[b].h {
			return points[a].h < points[b].h
		}
		return points[a].owner < points[b].owner
	})
	r.hashes = make([]uint64, len(points))
	r.owner = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.h
		r.owner[i] = p.owner
	}
	return r, nil
}

// Members returns the sorted member names.
func (r *Ring) Members() []string { return append([]string(nil), r.names...) }

// locate returns the index of the first virtual point at or clockwise
// of the key's hash.
func (r *Ring) locate(key string) int {
	h := fnv64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap
	}
	return i
}

// Owner returns the member that owns the key.
func (r *Ring) Owner(key string) string {
	return r.names[r.owner[r.locate(key)]]
}

// Replicas returns up to n distinct members for the key in ring
// order, starting at the owner. Replicas(key, 2)[1] is the hedge
// target: the member that takes over the arc if the owner leaves, so
// it is the peer most likely to have the point warm.
func (r *Ring) Replicas(key string, n int) []string {
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, at := 0, r.locate(key); len(out) < n && i < len(r.hashes); i++ {
		o := r.owner[(at+i)%len(r.hashes)]
		if !seen[o] {
			seen[o] = true
			out = append(out, r.names[o])
		}
	}
	return out
}

// OwnershipPermille returns each member's share of the key space in
// permille (tenths of a percent), from the widths of the arcs its
// virtual points own. Widths accumulate in float64: the arcs of a ring
// sum to exactly 2^64, which a uint64 accumulator would wrap to zero
// (a one-member ring owns the whole circle in a single arc). The loss
// of integer precision is irrelevant at permille resolution. Every
// member appears in the result, even at share 0; the map is a pure
// function of the membership, so every node federates the same arcs.
func (r *Ring) OwnershipPermille() map[string]int64 {
	share := make(map[string]float64, len(r.names))
	for i := range r.hashes {
		// Width of the arc ending at point i: distance from the previous
		// point, wrapping at the top of the circle. Unsigned subtraction
		// wraps correctly for the first point.
		width := r.hashes[i] - r.hashes[(i+len(r.hashes)-1)%len(r.hashes)]
		if len(r.hashes) == 1 {
			width = ^uint64(0) // a single point owns the full circle
		}
		share[r.names[r.owner[i]]] += float64(width)
	}
	const circle = float64(1<<63) * 2
	out := make(map[string]int64, len(r.names))
	for _, name := range r.names {
		out[name] = int64(share[name] / circle * 1000)
	}
	return out
}

// fnv64 is the 64-bit FNV-1a hash run through a splitmix64-style
// avalanche finalizer. Both stages use explicit constants so the hash
// is stable across processes, platforms and Go releases, which
// placement determinism requires (maphash and friends are seeded
// per-process). The finalizer matters: raw FNV-1a of near-identical
// short strings — exactly what canonical request keys and "name#v"
// virtual points are — clusters in the 64-bit space badly enough to
// skew a 3-member ring to a 70/20/10 split. Avalanching the output
// restores uniform arc placement.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
