package serve

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sharded block cache: physical-file bytes in fixed-size blocks keyed by
// (physical file, block index). Shard count is a power of two so the key
// hash maps with a mask; each shard has its own lock and LRU list, and the
// budget is split across shards in whole blocks, the leftover blocks one
// each to the first shards (GPFS-style independent cache partitions), so
// concurrent clients only contend when their blocks hash to the same shard
// and the shards together hold every whole block of the budget.
//
// The cache owns its memory: an entry is allocated when a shard first needs
// one and recycled from then on, and its frame is carved from a slab
// (blockCache.frame), so the steady state allocates nothing. A slab is one
// allocation of up to slabBytes, taken when the last one is used up, while
// the budget has room; on Linux its 2 MiB-aligned interior is advised onto
// huge pages (cache_linux.go), so a hit on a large resident set copies from
// memory that one TLB entry per 2 MiB maps, as pread's copy from the
// kernel's direct map does. A frame need not hold its whole block: an
// entry's valid range [lo, hi) is what its fills read, and a lookup hits
// only inside it; a re-fill extends the range in place where it can,
// reading only the bytes the frame lacks. A request's cache pass visits
// each of its blocks once, under one hold of the shard lock (lookup and
// claimMiss, or acquire): it copies the bytes out if they are resident, or
// pins the frame for a copy the fetch may make unnecessary (fetch.go);
// reports another reader's pending entry for the block; or reserves a
// pending entry for the caller — it evicts the LRU tail to make room and
// enters a vacated slot in the map, a frame the miss path reads the
// backend straight into and no lookup copies from. commit makes it
// resident, abort drops it, and both wake the readers waiting for it. Because frames are rewritten, no
// resident frame leaves this file: readers get bytes copied out (copyOut).
// The copy-out runs outside the shard lock (under it, two readers meeting
// on a shard cost serve-hot 9 %) with the entry pinned; a reservation
// passes over a vacated slot that is still pinned, which waits on the free
// list until its readers are done, since its frame is part of a slab that
// cannot be given back piecemeal.
//
// A full shard admits on evidence (TinyLFU: Einziger et al., ACM ToS
// 2017). From its first eviction on, a shard counts the hits and misses of
// each key (freqSketch), and a miss of a window of an FS block or more that
// would evict admits its block only if it was asked for more than twice as
// often as the LRU tail (freqSketch.admits); otherwise it is read around
// the cache, straight into the reader's buffer — no frame, no eviction, no
// copy-out. Under uniform reads over data several times the cache
// (ckpt-large, serve-cold) most blocks are never asked for again, and a
// sketch's collisions rate such a block above the tail now and then: a
// bare majority admitted them (87 evictions per 1k requests on serve-cold's
// replay row, 27 now), and on the ladder a block read around costs less
// than one filled, copied out and evicted. An admitted block enters at the
// LRU tail, so a one-off fill is the next victim, and moves to the front
// on its first hit. A smaller window is always admitted, at the front: the
// backend reads its whole FS block anyway (fillRange), and the next small
// window of the block should find it. A shard with room admits every miss.

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
// pending one being filled (in the map, on no list), or a vacated slot
// (frame kept) on the free list, chained through next.
type cacheEntry struct {
	key        blockKey
	data       []byte       // the frame; len is the block's length
	lo, hi     int64        // the bytes of the block the frame holds: [lo, hi)
	pending    bool         // being filled: lookups skip it, acquire reports it to other readers
	cold       bool         // admitted by frequency into a full shard: commit enters it at the LRU tail
	readers    atomic.Int32 // copyOuts still copying from a frame of this slot
	prev, next *cacheEntry  // LRU neighbours, toward the front / toward the tail
}

type cacheShard struct {
	mu     sync.Mutex
	filled sync.Cond                // on mu; broadcast when a pending entry is committed or aborted
	items  map[blockKey]*cacheEntry // resident and pending blocks
	lru    cacheEntry               // list sentinel: next = most recently used, prev = next victim
	free   *cacheEntry              // vacated slots
	bytes  int64                    // resident and pending
	budget int64                    // whole blocks: what bytes may reach
	freq   freqSketch               // access counts, kept from the shard's first eviction on
	// evictions and readAround are the shard's serve_cache_evictions_total
	// and serve_cache_read_around_total, in its shardCell (the Server
	// installs them; nil, as in a bare cache, counts nothing).
	evictions, readAround *atomic.Int64
}

type blockCache struct {
	shards  []cacheShard
	mask    uint64
	budget  int64    // the shards' budgets summed: what the slabs may take
	ab      ablation // the sketch's shape (freqSketch.init)
	fsBlock int64    // a first fill reads the FS blocks its window touches (fillRange); 0: its whole block

	// slabMu guards the frame source: slab is the current slab's part not
	// yet carved into frames, and taken counts the bytes of every slab and
	// of every frame allocated past the budget.
	slabMu sync.Mutex
	slab   []byte
	taken  int64
}

// slabBytes is the most one slab takes: four 2 MiB huge pages, of which
// at least three are whole wherever the slab lands.
const slabBytes = 8 << 20

// newBlockCache builds a cache of the whole blockBytes blocks of
// totalBytes, split over nshards shards (rounded up to a power of two):
// each shard gets the same whole number of blocks, and the first shards
// one leftover block each. The caller guarantees every shard at least one
// block. Slabs are taken as blocks arrive: nothing proportional to the
// budget is allocated here.
func newBlockCache(totalBytes int64, nshards int, blockBytes int64) *blockCache {
	n := 1
	for n < nshards {
		n <<= 1
	}
	blocks := totalBytes / blockBytes
	c := &blockCache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		budget: blocks * blockBytes,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.budget = blocks / int64(n) * blockBytes
		if int64(i) < blocks%int64(n) {
			s.budget += blockBytes
		}
		s.items = make(map[blockKey]*cacheEntry)
		s.filled.L = &s.mu
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

// count adds one to a shard's tally; the nil tally counts nothing.
func count(v *atomic.Int64) {
	if v != nil {
		v.Add(1)
	}
}

// unlink takes e off the LRU list.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// link puts e on the LRU list behind at: &s.lru makes it the most
// recently used, s.lru.prev the next victim.
func (s *cacheShard) link(e, at *cacheEntry) {
	e.prev, e.next = at, at.next
	e.next.prev, at.next = e, e
}

// vacate drops resident entry e and keeps the slot and its frame for the
// next insertion that finds it unpinned.
func (s *cacheShard) vacate(e *cacheEntry) {
	e.unlink()
	delete(s.items, e.key)
	s.bytes -= int64(len(e.data))
	e.next, s.free = s.free, e
}

// pinFreeCopy is the longest copy-out done under the shard lock: below it
// the copy is cheaper than the pin's two atomic round trips.
const pinFreeCopy = 1 << 10

// covers reports whether e is resident and holds the len(dst) bytes of
// its block at offset from.
func (e *cacheEntry) covers(dst []byte, from int64) bool {
	return !e.pending && e.lo <= from && from+int64(len(dst)) <= e.hi
}

// copyOut reports whether block k holds the len(dst) bytes at offset from
// and, if so, copies them into dst and marks the block most recently used.
// si is the key's shard index.
func (c *blockCache) copyOut(si int, k blockKey, dst []byte, from int64) bool {
	s, _ := c.lookup(si, k, dst, from)
	if s != nil {
		s.mu.Unlock()
	}
	return s == nil
}

// lookup is copyOut for a read's cache pass, which settles a block it
// misses in the same visit: on a miss it returns the shard, still locked,
// and what its map holds for k (nil: nothing), for claimMiss. si is the
// key's shard index, which the read path has hashed for its metrics.
func (c *blockCache) lookup(si int, k blockKey, dst []byte, from int64) (*cacheShard, *cacheEntry) {
	s := &c.shards[si]
	s.mu.Lock()
	e := s.items[k]
	if e != nil && e.covers(dst, from) {
		s.hit(e, dst, from)
		return nil, nil
	}
	return s, e
}

// pin is copyOut for a copy that may not be needed: if block k holds the
// len(dst) bytes at offset from, it counts and moves the block as copyOut
// does but copies nothing, and pins its frame instead. It returns the
// entry and the frame from offset from, which the caller may copy from
// until it calls e.unpin; on a miss it returns nil.
func (c *blockCache) pin(si int, k blockKey, dst []byte, from int64) (*cacheEntry, []byte) {
	s := &c.shards[si]
	s.mu.Lock()
	e := s.items[k]
	if e == nil || !e.covers(dst, from) {
		s.mu.Unlock()
		return nil, nil
	}
	return e, s.pinned(e, from)
}

// pinned counts and moves resident entry e as a hit does and pins its
// frame, which it returns from offset from. The caller holds the shard
// lock; pinned releases it.
func (s *cacheShard) pinned(e *cacheEntry, from int64) []byte {
	s.touch(e)
	e.readers.Add(1) // under the lock: a reserve that sees zero readers has none
	s.mu.Unlock()
	return e.data[from:]
}

// unpin ends a pin: the slot's frame may be recycled again.
func (e *cacheEntry) unpin() { e.readers.Add(-1) }

// touch records a hit on resident entry e: it counts in the sketch and
// becomes the most recently used block. The caller holds the shard lock.
func (s *cacheShard) touch(e *cacheEntry) {
	s.freq.record(e.key)
	if s.lru.next != e {
		e.unlink()
		s.link(e, &s.lru)
	}
}

// hit serves a lookup that resident entry e covers: e becomes the most
// recently used block, and its bytes from offset from are copied into
// dst. The caller holds the shard lock; hit releases it.
func (s *cacheShard) hit(e *cacheEntry, dst []byte, from int64) {
	s.touch(e)
	src := e.data[min(from, int64(len(e.data))):]
	if len(dst) <= pinFreeCopy {
		copy(dst, src)
		s.mu.Unlock()
		return
	}
	e.readers.Add(1) // under the lock: a reserve that sees zero readers has none
	s.mu.Unlock()
	copy(dst, src)
	e.unpin()
}

// claim is what acquire found for a block.
type claim int

const (
	claimHit    claim = iota // resident: dst holds the bytes
	claimPinned              // resident and pinned: the fill is the entry and its frame from the window's offset
	claimMine                // a pending entry the caller fills, then commits or aborts
	claimWait                // another reader is filling the block: wait, then acquire again
	claimAround              // declined by a full shard, or past top: the caller reads the block into dst itself
)

// acquire settles block k for a reader that wants its bytes [from,
// from+len(dst)), under one hold of the shard lock. If they are resident
// it copies them out, or with pin set counts and moves the block as a copy
// would but pins its frame instead: the fill's entry and frame from offset
// from, which the caller may copy from until it calls e.unpin. Otherwise
// claimMiss settles the miss. base is where the n-byte block starts in its
// file and top where its committed bytes end, from its start.
func (c *blockCache) acquire(k blockKey, dst []byte, from, base, top, n int64, around, pin bool) (fill, claim) {
	s := c.shard(k)
	s.mu.Lock()
	e := s.items[k]
	switch {
	case e != nil && e.covers(dst, from) && pin:
		return fill{e, s.pinned(e, from), from}, claimPinned
	case e != nil && e.covers(dst, from):
		s.hit(e, dst, from)
		return fill{}, claimHit
	}
	return c.claimMiss(s, k, e, dst, from, base, top, n, around)
}

// claimMiss settles block k, which missed in shard s, for a reader that
// wants its bytes [from, from+len(dst)): old is what s's map holds for k
// (nil: nothing), base is where the n-byte block starts in its file, and
// top where its committed bytes end, from its start. The caller holds the
// shard lock; claimMiss releases it. It returns claimWait if another
// reader's pending entry holds the block; claimAround, with dst as the
// fill, if the window reaches past top (never cached, not recorded in the
// sketch) or if the reader may read around the cache (around: its window
// is at least an FS block) and the shard, which would have to evict, has
// no evidence that the block is wanted more than its LRU tail
// (freqSketch.admits); and otherwise a pending n-byte entry for the caller
// and the part of its frame the caller's backend read fills.
//
// A first miss reserves an entry holding [lo, hi), the FS blocks of the
// window (fillRange), and the read fills all of it. A re-fill — a resident
// copy holds [olo, ohi) but not the window — takes the hull of the two,
// and out to top if the window starts inside the copy or right after it: a
// reader moving forward through the block asks for the rest of it next. If
// the copy lies at one end of the hull, the entry is extended in place: it
// turns pending, keeps its frame and its charge to the shard, and the read
// fills only the rest of the hull. Pinned copy-outs of the copy read
// inside [olo, ohi), which the read does not touch. A span (fetch.go)
// joins its blocks' reads end to end, so a window touching an end of the
// block (from 0, or to n) is read from or to that end; where that or a
// copy inside the hull leaves no single range outside the copy, the read
// fills the whole hull into a reserved frame. top (≤ n, ≥ hi) caps every
// valid range: it is where the block's committed bytes end (n but at a
// live frontier, tail.go). A copy reaching past top, filled for a newer
// snapshot than the reader's, is replaced by the window's FS blocks.
func (c *blockCache) claimMiss(s *cacheShard, k blockKey, old *cacheEntry, dst []byte, from, base, top, n int64, around bool) (fill, claim) {
	ok := old != nil
	switch {
	case ok && old.pending:
		s.mu.Unlock()
		return fill{}, claimWait
	case from+int64(len(dst)) > top:
		s.mu.Unlock()
		count(s.readAround)
		return fill{nil, dst, from}, claimAround
	}
	full := s.bytes+n > s.budget
	if full && s.freq.count == nil {
		s.freq.init(s.budget/n, c.ab)
	}
	s.freq.record(k)
	cold := !ok && around && full
	if tail := s.lru.prev; cold && tail != &s.lru && !s.freq.admits(k, tail.key) {
		s.mu.Unlock()
		count(s.readAround)
		return fill{nil, dst, from}, claimAround
	}
	lo, hi := c.fillRange(base, dst, from, n)
	hi = min(hi, top)
	if ok && old.hi <= top {
		olo, ohi := old.lo, old.hi
		if olo <= from && from <= ohi {
			hi = top
		}
		lo, hi = min(lo, olo), max(hi, ohi)
		switch {
		case olo == lo && from > 0:
			return s.extend(old, lo, hi, ohi, hi), claimMine
		case ohi == hi && from+int64(len(dst)) < n:
			return s.extend(old, lo, hi, lo, olo), claimMine
		}
	}
	e := c.reserve(s, k, n)
	e.lo, e.hi, e.cold = lo, hi, cold
	s.mu.Unlock()
	return fill{e, e.data[lo:hi], lo}, claimMine
}

// fillRange is the part of the n-byte block starting at file offset base
// that a first miss of the window [from, from+len(dst)) of it reads: the
// FS blocks the window touches, aligned in file offsets and clamped to the
// block. With cache blocks of one FS block, or no FS block, it is the
// whole block.
func (c *blockCache) fillRange(base int64, dst []byte, from, n int64) (lo, hi int64) {
	fb := c.fsBlock
	if fb == 0 {
		return 0, n
	}
	lo = max((base+from)/fb*fb-base, 0)
	hi = min((base+from+int64(len(dst))+fb-1)/fb*fb-base, n)
	return lo, hi
}

// extend makes resident entry e pending in place over [lo, hi), for a
// re-fill whose read fills [rlo, rhi), outside the bytes e holds; an abort
// drops the block, its old bytes too. The caller holds s.mu; extend
// releases it.
func (s *cacheShard) extend(e *cacheEntry, lo, hi, rlo, rhi int64) fill {
	e.unlink()
	e.lo, e.hi, e.pending, e.cold = lo, hi, true, false
	s.mu.Unlock()
	return fill{e, e.data[rlo:rhi], rlo}
}

// freqSketch counts how often a shard was asked for each key: counters
// saturating at 15, two per key, the smaller the estimate; the next power
// of two ≥ 8× the blocks the shard holds (≥ 64), all halved after 4× that
// many accesses (TinyLFU's reset). The zero value records nothing.
type freqSketch struct {
	count []uint8
	seen  int // accesses recorded since the last halving
}

// init sizes the sketch for a shard of blocks blocks. ab reshapes it for
// the ablation table, at no cost to record and est: a sketch that never
// halves starts its count of accesses at the smallest int, as far from
// the first halving as an int reaches.
func (f *freqSketch) init(blocks int64, ab ablation) {
	per := int64(8)
	if ab.sketchPerBlock > 0 {
		per = int64(ab.sketchPerBlock)
	}
	f.count = make([]uint8, max(64, 1<<bits.Len64(uint64(per*blocks-1))))
	if ab.sketchNeverHalves {
		f.seen = math.MinInt
	}
}

// probes returns k's two counters, remixing the hash: its low bits are the shard.
func (f *freqSketch) probes(k blockKey) (int, int) {
	h := k.hash()
	h = (h ^ h>>31) * 0x94d049bb133111eb
	m := uint64(len(f.count) - 1)
	return int(h >> 7 & m), int(h >> 37 & m)
}

func (f *freqSketch) record(k blockKey) {
	if f.count == nil {
		return
	}
	i, j := f.probes(k)
	f.count[i] = min(f.count[i]+1, 15)
	if j != i {
		f.count[j] = min(f.count[j]+1, 15)
	}
	if f.seen++; f.seen == 4*len(f.count) {
		for x := range f.count {
			f.count[x] >>= 1
		}
		f.seen = 0
	}
}

func (f *freqSketch) est(k blockKey) uint8 {
	i, j := f.probes(k)
	return min(f.count[i], f.count[j])
}

// admits reports whether the sketch rates k clearly above tail: asked for
// more than twice as often. A bare majority is what collisions give a
// block of uniform traffic over the tail now and then; twice is evidence,
// with no constant to tune. A tail counted 8 or more (half the counters'
// 15) admits nothing until the next halving.
func (f *freqSketch) admits(k, tail blockKey) bool {
	return int(f.est(k)) > 2*int(f.est(tail))
}

// poisonRecycled is called on a frame as reserve recycles it; race-detector
// test builds overwrite it, so bytes copied from a frame reused under a pin
// show as garbage.
var poisonRecycled = func([]byte) {}

// reserve makes room in shard s (whose lock the caller holds) for an
// n-byte block k — evicting from the LRU tail until the shard's resident
// and pending bytes fit its budget, or nothing is left to evict
// (evictions count on the shard's instrument) — charges the shard for it,
// and enters a pending entry for k in the map in place of any resident
// copy. The entry's frame e.data (n bytes of stale contents, valid range
// the whole block) is the caller's to fill. The entry is the first vacated
// slot whose frame holds n bytes and that no reader pins; only if there is
// none does the shard take a new slot and frame.
func (c *blockCache) reserve(s *cacheShard, k blockKey, n int64) *cacheEntry {
	if old, ok := s.items[k]; ok {
		s.vacate(old)
	}
	for s.bytes+n > s.budget && s.lru.prev != &s.lru {
		s.vacate(s.lru.prev)
		count(s.evictions)
	}
	e := s.takeFree(n)
	if e != nil {
		e.data = e.data[:n]
		poisonRecycled(e.data)
	} else {
		e = &cacheEntry{data: c.frame(n)}
	}
	e.key, e.next, e.pending, e.cold, e.lo, e.hi = k, nil, true, false, 0, n
	s.bytes += n
	s.items[k] = e
	return e
}

// takeFree unlinks and returns the first free slot of s whose frame holds n
// bytes and that no copy-out reads, or nil if there is none. Pins are taken
// under the shard lock the caller holds, and only on resident entries, so
// a free slot seen unpinned stays so.
func (s *cacheShard) takeFree(n int64) *cacheEntry {
	for at := &s.free; *at != nil; at = &(*at).next {
		if e := *at; e.readers.Load() == 0 && int64(cap(e.data)) >= n {
			*at = e.next
			return e
		}
	}
	return nil
}

// frame carves a new n-byte frame from the current slab, first taking a
// new slab of min(slabBytes, the budget not yet taken) in whole frames if
// the current one is used up. Past the budget — reservations overrunning a
// shard, or a shard whose vacated slots are all pinned — the frame is an
// allocation of its own. Each frame is a full slice expression, so no
// append or fuse (fetch.go) reaches from one frame into the next.
func (c *blockCache) frame(n int64) []byte {
	c.slabMu.Lock()
	defer c.slabMu.Unlock()
	if int64(len(c.slab)) < n {
		size := min(slabBytes, c.budget-c.taken) / n * n
		if size <= 0 {
			c.taken += n
			return make([]byte, n)
		}
		c.slab = make([]byte, size)
		adviseHugePages(c.slab)
		c.taken += size
	}
	f := c.slab[:n:n]
	c.slab = c.slab[n:]
	return f
}

// commit makes a filled pending entry resident, with no map operation —
// the most recently used block, or the LRU tail if it was admitted by
// frequency (cold) — and wakes the readers waiting for it. If reservations
// ran the shard over budget — one request reserving more of a shard than
// it holds — commit first trims the LRU tail back to it, which leaves what
// a block-by-block insertion would have. The caller must be done with
// e.data: once resident, a frame can be recycled at once.
func (c *blockCache) commit(e *cacheEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	e.pending = false
	for s.bytes > s.budget && s.lru.prev != &s.lru {
		s.vacate(s.lru.prev)
		count(s.evictions)
	}
	at := &s.lru
	if e.cold {
		at = s.lru.prev
	}
	s.link(e, at)
	s.mu.Unlock()
	s.filled.Broadcast()
}

// abort deletes a pending entry: its bytes go back to its shard, its slot
// and frame to the free list for the next reservation, and the readers
// waiting for it acquire the block again.
func (c *blockCache) abort(e *cacheEntry) {
	s := c.shard(e.key)
	s.mu.Lock()
	delete(s.items, e.key)
	s.bytes -= int64(len(e.data))
	e.next, s.free = s.free, e
	s.mu.Unlock()
	s.filled.Broadcast()
}

// wait returns once no reader is filling block k. The caller must hold no
// pending entry of its own: then no filler ever waits on a waiter, and
// waits cannot cycle.
func (c *blockCache) wait(k blockKey) {
	s := c.shard(k)
	s.mu.Lock()
	for e, ok := s.items[k]; ok && e.pending; e, ok = s.items[k] {
		s.filled.Wait()
	}
	s.mu.Unlock()
}

// cachedBytes sums the resident bytes across shards, plus those of pending
// entries still being filled (stats snapshot).
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
