package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Sharded block cache: physical-file bytes in fixed-size blocks keyed by
// (physical file, block index). Shard count is a power of two so the key
// hash maps with a mask; each shard has its own lock and LRU list, and the
// byte budget is split evenly across shards (GPFS-style independent cache
// partitions), so concurrent clients only contend when their blocks hash
// to the same shard.
//
// The cache owns its memory: an entry and its frame are allocated when a
// shard first needs them and recycled from then on, so the steady state
// allocates nothing. A block enters in two steps: reserve evicts the LRU
// tail to make room and hands the miss path the slot just vacated, a
// private frame it reads the backend straight into; commit then publishes
// it (abort gives it back). Because frames are rewritten, no published
// frame leaves this file: readers get bytes copied out (copyOut). The
// copy-out runs outside the shard lock (under it, two readers meeting on a
// shard cost serve-hot 9 %) with the entry pinned; a reservation that
// finds its slot pinned leaves that frame to its readers.

// blockKey identifies one cache block.
type blockKey struct {
	file  int
	block int64
}

// hash mixes the key into a shard index (Fibonacci-style multiplicative
// hashing; file and block each spread over the full word before xor so
// adjacent blocks land on different shards).
func (k blockKey) hash() uint64 {
	return uint64(k.file)*0x9e3779b97f4a7c15 ^ uint64(k.block)*0xbf58476d1ce4e5b9>>17 ^ uint64(k.block)
}

// cacheEntry is one slot of a shard: a resident block on the LRU list, a
// reservation being filled (on neither list), or a vacated slot (frame
// kept) on the free list, chained through next.
type cacheEntry struct {
	key        blockKey
	data       []byte       // the frame; len is the resident block's length
	hits       int64        // lookups served since insertion (feeds HotBlocks)
	readers    atomic.Int32 // copyOuts still copying from a frame of this slot
	prev, next *cacheEntry  // LRU neighbours, toward the front / toward the tail
}

type cacheShard struct {
	mu    sync.Mutex
	items map[blockKey]*cacheEntry // resident blocks
	lru   cacheEntry               // list sentinel: next = most recently used, prev = next victim
	free  *cacheEntry              // vacated slots
	bytes int64                    // resident and reserved
	// evictions is the shard's serve_cache_evictions_total instrument
	// (the Server installs it; nil, as in a bare cache, counts nothing).
	evictions *obs.Counter
}

type blockCache struct {
	shards   []cacheShard
	mask     uint64
	perShard int64 // byte budget per shard
}

// newBlockCache builds a cache of totalBytes split over nshards shards
// (rounded up to a power of two). The caller guarantees the per-shard
// budget holds at least one block. Frames appear as blocks do: nothing
// proportional to the budget is allocated here.
func newBlockCache(totalBytes int64, nshards int) *blockCache {
	n := 1
	for n < nshards {
		n <<= 1
	}
	c := &blockCache{
		shards:   make([]cacheShard, n),
		mask:     uint64(n - 1),
		perShard: totalBytes / int64(n),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.items = make(map[blockKey]*cacheEntry)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

func (c *blockCache) shard(k blockKey) *cacheShard {
	return &c.shards[k.hash()&c.mask]
}

// shardIndex returns the shard a key maps to, for per-shard metric
// attribution.
func (c *blockCache) shardIndex(k blockKey) int {
	return int(k.hash() & c.mask)
}

// unlink takes e off the LRU list.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront makes e the most recently used.
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.next.prev, s.lru.next = e, e
}

// vacate drops resident entry e and keeps the slot and its frame for the
// next insertion.
func (s *cacheShard) vacate(e *cacheEntry) {
	e.unlink()
	delete(s.items, e.key)
	s.bytes -= int64(len(e.data))
	e.next, s.free = s.free, e
}

// pinFreeCopy is the longest copy-out done under the shard lock: below it
// the copy is cheaper than the pin's two atomic round trips.
const pinFreeCopy = 1 << 10

// copyOut reports whether block k is resident and, if so, copies its bytes
// from offset `from` into dst (as many as both hold; an empty dst asks for
// presence only), marks it most recently used and counts the lookup. si is
// the key's shard index, which the read path has hashed for its metrics.
func (c *blockCache) copyOut(si int, k blockKey, dst []byte, from int64) bool {
	s := &c.shards[si]
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if s.lru.next != e {
		e.unlink()
		s.pushFront(e)
	}
	e.hits++
	src := e.data[min(from, int64(len(e.data))):]
	if min(len(dst), len(src)) <= pinFreeCopy {
		copy(dst, src)
		s.mu.Unlock()
		return true
	}
	e.readers.Add(1) // under the lock: a reserve that sees zero readers has none
	s.mu.Unlock()
	copy(dst, src)
	e.readers.Add(-1)
	return true
}

// reserve makes room for an n-byte block k — evicting from the LRU tail
// until the shard's resident and reserved bytes fit its budget, or nothing
// is left to evict (evictions count on the shard's instrument) — charges
// the shard for it, and returns a private entry whose frame e.data (n bytes
// of stale contents) the caller fills. No lookup sees the entry until
// commit publishes it; abort hands it back.
func (c *blockCache) reserve(k blockKey, n int64) *cacheEntry {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.bytes+n > c.perShard && s.lru.prev != &s.lru {
		s.vacate(s.lru.prev)
		s.evictions.Inc()
	}
	e := s.free
	if e != nil {
		s.free = e.next
	} else {
		e = new(cacheEntry)
	}
	e.key, e.hits, e.next = k, 0, nil
	if e.readers.Load() != 0 || int64(cap(e.data)) < n {
		// A new slot, or one whose frame a copyOut still reads: that
		// frame is theirs now.
		e.data = make([]byte, n)
	} else {
		e.data = e.data[:n]
	}
	s.bytes += n
	return e
}

// commit publishes a filled reservation as the most recently used block,
// replacing a resident copy of its key (the Server never has one: only the
// holder of a flight claim reserves its blocks). If reservations ran the
// shard over budget — one request reserving more of a shard than it holds —
// commit trims the LRU tail back to it, never e itself, which leaves what a
// block-by-block insertion would have. The caller must be done with e.data:
// once published, a frame can be recycled at once.
func (c *blockCache) commit(e *cacheEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.items[e.key]; ok {
		s.vacate(old)
	}
	s.items[e.key] = e
	s.pushFront(e)
	for s.bytes > c.perShard && s.lru.prev != e {
		s.vacate(s.lru.prev)
		s.evictions.Inc()
	}
}

// abort returns an unpublished reservation's bytes to its shard and its
// slot and frame to the free list, for the next reservation.
func (c *blockCache) abort(e *cacheEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	s.bytes -= int64(len(e.data))
	e.next, s.free = s.free, e
	s.mu.Unlock()
}

// invalidate drops a block from the cache if present. Tail servers call
// it when a rank's committed frontier crosses into a new block: the block
// that used to contain the frontier was never cached (frontier bytes
// bypass the cache), but dropping it anyway keeps the cache provably free
// of stale bytes even if a future caller caches more eagerly.
func (c *blockCache) invalidate(k blockKey) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.vacate(e)
	}
}

// hot lists the resident blocks with at least minHits lookups, hottest
// first (ties on (file, block) so the order is deterministic). Hit counts
// are per-entry and reset when a block is evicted and refetched, so the
// report tracks the *current* working set, not all-time popularity.
func (c *blockCache) hot(minHits int64) []HotBlock {
	var out []HotBlock
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if e.hits >= minHits {
				out = append(out, HotBlock{File: k.file, Block: k.block, Hits: e.hits})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// cachedBytes sums the resident bytes across shards, plus those reserved
// by fetches still in flight (stats snapshot).
func (c *blockCache) cachedBytes() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}
