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
// shard first needs them and recycled from then on — a put on a full shard
// evicts the LRU tail and copies into the frame just vacated, so the steady
// state allocates nothing. Because frames are rewritten, no slice aliasing
// one leaves this file: readers get bytes copied out (copyOut), writers
// theirs copied in (put). The copy-out runs outside the shard lock (under
// it, two readers meeting on a shard cost serve-hot 9 %) with the entry
// pinned; a put that finds its slot pinned leaves that frame to its readers.

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

// cacheEntry is one slot of a shard: a resident block on the LRU list, or
// a vacated slot (frame kept) on the free list, chained through next.
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
	bytes int64
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
	e.readers.Add(1) // under the lock: a put that sees zero readers has none
	s.mu.Unlock()
	copy(dst, src)
	e.readers.Add(-1)
	return true
}

// put inserts (or refreshes) a block, copying src into a frame the shard
// owns, after evicting from the LRU tail until the shard has room for it
// (never the block being put; evictions count on the shard's instrument).
// Victims and order are exactly those of an insert followed by a trim — the
// new block sits at the front either way — but evicting first lets the new
// block move into the vacated frame.
func (c *blockCache) put(k blockKey, src []byte) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, resident := s.items[k]
	if resident {
		// Refresh: fresh bytes, front position. (The Server never gets
		// here: a flight puts only blocks it found absent under its claim.)
		e.unlink()
		s.bytes -= int64(len(e.data))
	}
	for s.bytes+int64(len(src)) > c.perShard && s.lru.prev != &s.lru {
		s.vacate(s.lru.prev)
		s.evictions.Inc()
	}
	if !resident {
		if e = s.free; e != nil {
			s.free = e.next
		} else {
			e = new(cacheEntry)
		}
		e.key, e.hits = k, 0
		s.items[k] = e
	}
	if e.readers.Load() != 0 {
		e.data = nil // a copyOut is still reading that frame: it is theirs now
	}
	e.data = append(e.data[:0], src...)
	s.bytes += int64(len(src))
	s.pushFront(e)
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

// cachedBytes sums the resident bytes across shards (stats snapshot).
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
