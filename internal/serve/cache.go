package serve

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Sharded block cache: physical-file bytes in fixed-size blocks keyed by
// (physical file, block index). Shard count is a power of two so the key
// hash maps with a mask; each shard has its own lock and LRU list, and the
// byte budget is split evenly across shards (GPFS-style independent cache
// partitions), so concurrent clients only contend when their blocks hash
// to the same shard.

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

type cacheEntry struct {
	key  blockKey
	data []byte
	hits int64 // lookups served since insertion (feeds HotBlocks)
}

type cacheShard struct {
	mu    sync.Mutex
	items map[blockKey]*list.Element
	lru   list.List // front = most recently used
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
// budget holds at least one block.
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
		c.shards[i].items = make(map[blockKey]*list.Element)
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

// get returns the cached block and marks it most recently used. The
// returned slice is shared and must be treated as immutable.
func (c *blockCache) get(k blockKey) ([]byte, bool) {
	return c.getAt(c.shardIndex(k), k)
}

// getAt is get with the shard index precomputed — the read hot path
// needs the index for per-shard metric attribution anyway, so it hashes
// once and passes it in.
func (c *blockCache) getAt(si int, k blockKey) ([]byte, bool) {
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	ent.hits++
	return ent.data, true
}

// put inserts (or refreshes) a block and evicts from the shard's LRU tail
// until the shard is back under budget, counting each eviction on the
// shard's instrument. data must not be mutated after insertion.
func (c *blockCache) put(k blockKey, data []byte) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		// Concurrent fetchers of different files can race the same key only
		// if keys collide across fetchers, which they cannot (the file is
		// part of the key) — but a refetch after eviction can re-insert
		// while an old entry still exists on another path. Keep the fresh
		// bytes and the LRU position.
		ent := el.Value.(*cacheEntry)
		s.bytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		s.lru.MoveToFront(el)
	} else {
		s.items[k] = s.lru.PushFront(&cacheEntry{key: k, data: data})
		s.bytes += int64(len(data))
	}
	for s.bytes > c.perShard && s.lru.Len() > 1 {
		el := s.lru.Back()
		ent := el.Value.(*cacheEntry)
		s.lru.Remove(el)
		delete(s.items, ent.key)
		s.bytes -= int64(len(ent.data))
		s.evictions.Inc()
	}
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
	if el, ok := s.items[k]; ok {
		ent := el.Value.(*cacheEntry)
		s.lru.Remove(el)
		delete(s.items, k)
		s.bytes -= int64(len(ent.data))
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
		for _, el := range s.items {
			ent := el.Value.(*cacheEntry)
			if ent.hits >= minHits {
				out = append(out, HotBlock{File: ent.key.file, Block: ent.key.block, Hits: ent.hits})
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
