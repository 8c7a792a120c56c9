package cluster

import (
	"sort"
)

// Consistent-hash ring: every node contributes vnodes virtual points,
// hashed from its id, and a (physical file, granule) key is owned by the
// first point clockwise from the key's hash. Virtual points smooth the
// load split, and consistency is the scale-out property the router needs:
// a node joining or leaving remaps only the ~1/N of granules adjacent to
// its points, so the surviving nodes' caches stay hot across membership
// churn (the same argument CkIO makes for over-decomposing its reader
// layer: ownership moves in pieces, not wholesale — and in pieces larger
// than a request, so a request stays whole on its way to a node).

// granuleBytes is the placement unit: granuleBytes/blockBytes consecutive
// cache blocks of one physical file (at least one) share a ring key, hence
// a primary and a failover order. Granules start at the file's first
// chunk, not byte 0 (sion.Layout.GridShift). Sizes from 64 KiB to 4 MiB
// route the bench workloads alike, so this is a constant, not a knob. A
// ring that has neither changed since its first read nor failed a run
// over keeps a granule's blocks on its primary alone: no peer to ask
// (Cluster.stirred).
const granuleBytes = 256 << 10

// vnodes is the number of virtual ring points per node: enough that each
// of 4 nodes owns 10–45 % of the granules (TestRingBalance), few enough
// that a membership change rebuilds the ring cheaply.
const vnodes = 64

// maxNodes bounds the membership so that a candidate list fits an array
// on the caller's stack and a 64-bit seen mask: routing allocates nothing.
const maxNodes = 64

// ringPoint is one virtual point: a position on the 64-bit ring and the
// index (into the router's node slice) of the node that owns it.
type ringPoint struct {
	hash uint64
	node int
}

type ring struct {
	points []ringPoint // sorted by hash
	nodes  int
}

// fnv1a hashes a string (FNV-1a, 64 bit).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 finalizes an integer key (splitmix64 finalizer) so consecutive
// granules scatter uniformly around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// granuleHash is the ring position of granule (file, granule).
func granuleHash(file int, granule int64) uint64 {
	return mix64(uint64(file)*0x9e3779b97f4a7c15 + uint64(granule) + 0x632be59bd9b4e019)
}

// buildRing places vnodes points per node. ids is the router's node slice
// order; point hashes depend only on the node ids, so the same membership
// always yields the same ring regardless of join order.
func buildRing(ids []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*vnodes), nodes: len(ids)}
	for n, id := range ids {
		base := fnv1a(id)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(base + uint64(v)*0x9e3779b97f4a7c15), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// lookup writes every node index into buf in ring order starting from the
// first point clockwise of key and returns that prefix of buf: index 0 is
// the granule's primary, the rest are its failover successors. The result is empty only for an empty ring.
func (r *ring) lookup(key uint64, buf *[maxNodes]int) []int {
	out := buf[:0]
	var seen uint64
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points) && len(out) < r.nodes; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen&(1<<uint(p.node)) == 0 {
			seen |= 1 << uint(p.node)
			out = append(out, p.node)
		}
	}
	return out
}
