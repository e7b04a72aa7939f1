// Package cluster is the distribution layer of ptrack-serve: a
// deterministic consistent-hash ring mapping session IDs to replicas,
// an HTTP remote implementation of store.Store speaking the cluster
// state protocol (GET/PUT/DELETE /v1/state/{id}), the handler serving
// that protocol, and a ring-routed replicated store that the session
// hub checkpoints through. Membership is static configuration (-peers);
// there is no gossip, failure detection, or consensus — a ring change
// is an operator action (SIGHUP or POST /v1/cluster/ring), and the
// bit-exact tracker snapshots from internal/statecodec are what make
// moving a live session across processes correct by construction.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Node is one replica in the static membership: a stable name (the ring
// hashes names, so identity survives address changes) and the base URL
// peers use to reach it.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Ring geometry, fixed for every replica. ringVNodes trades balance for
// memory: 64 virtual nodes per replica keeps the max/mean load ratio
// near 1.1 for small clusters at 8 bytes × 64 points per node. ringSeed
// is arbitrary: every process that shares membership computes the
// identical ring, which is what makes routing stable across replicas
// without coordination.
const (
	ringVNodes = 64
	ringSeed   = uint64(0x7074_7261_636b_3031) // "ptrack01"
)

// Ring is an immutable consistent-hash ring. Replicas swap the whole
// ring on membership change rather than mutating it, so readers never
// lock.
type Ring struct {
	nodes   []Node // sorted by name, unique
	points  []ringPoint
	version string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over nodes. Node names must be unique and
// non-empty; URLs are carried opaquely. An empty node list yields a
// valid empty ring that owns nothing.
func NewRing(nodes []Node) (*Ring, error) {
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, n := range sorted {
		if n.Name == "" {
			return nil, errors.New("cluster: node with empty name")
		}
		if i > 0 && sorted[i-1].Name == n.Name {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
	}
	r := &Ring{nodes: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*ringVNodes)
	for ni, n := range sorted {
		for v := 0; v < ringVNodes; v++ {
			h := hash64(ringSeed, n.Name+"#"+strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break on node order so every process sorts the
		// same ring regardless of sort stability.
		return r.points[i].node < r.points[j].node
	})
	r.version = r.fingerprint()
	return r, nil
}

// fingerprint folds membership and geometry into a short stable hex
// token: two rings agree on every placement iff their versions match,
// which is what /v1/cluster/ring introspection exposes for operators
// checking that all replicas converged.
func (r *Ring) fingerprint() string {
	h := hash64(ringSeed, "v1|"+strconv.Itoa(ringVNodes))
	for _, n := range r.nodes {
		h ^= hash64(ringSeed, n.Name+"="+n.URL)
		h *= 1099511628211
	}
	return strconv.FormatUint(h, 16)
}

// Len reports the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the membership, sorted by name. Callers must not
// mutate the slice.
func (r *Ring) Nodes() []Node { return r.nodes }

// Version is the ring's stable fingerprint.
func (r *Ring) Version() string { return r.version }

// Owner maps a session ID to its primary owner. ok is false on an
// empty ring.
func (r *Ring) Owner(id string) (Node, bool) {
	owners := r.Owners(id, 1)
	if len(owners) == 0 {
		return Node{}, false
	}
	return owners[0], true
}

// Owners returns up to n distinct nodes responsible for id, primary
// first, walking clockwise from the ID's point. Every process with the
// same ring returns the identical slice — the property sharding and
// replica placement rest on.
func (r *Ring) Owners(id string, n int) []Node {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(ringSeed, id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Node, 0, n)
	seen := make(map[int]struct{}, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, r.nodes[p.node])
	}
	return out
}

// hash64 is seeded FNV-64a with a murmur-style avalanche finalizer,
// written out so the ring's placement is a fixed function of
// (seed, bytes) — no dependence on library internals that could drift
// between builds. The seed is folded in byte by byte before the
// payload; the finalizer matters because raw FNV leaves the short,
// near-identical keys a ring hashes ("node#17", "node#18") clustered,
// which skews placement badly.
func hash64(seed uint64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
