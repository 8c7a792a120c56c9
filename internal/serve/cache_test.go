package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsio"
)

// lookup reads up to n bytes of block k the way a reader does: copied out
// under the shard lock, counted as a lookup.
func lookup(c *blockCache, k blockKey, n int) ([]byte, bool) {
	dst := make([]byte, n)
	ok := c.copyOut(c.shardIndex(k), k, dst, 0)
	return dst, ok
}

// reserve takes acquire's reservation step alone: a pending n-byte entry
// for k, in place of any resident copy.
func reserve(c *blockCache, k blockKey, n int64) *cacheEntry {
	s := &c.shards[c.shardIndex(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.reserve(s, k, n)
}

// insert caches data as block k, replacing any resident copy: reserve a
// frame, fill it, make it resident.
func insert(c *blockCache, k blockKey, data []byte) {
	e := reserve(c, k, int64(len(data)))
	copy(e.data, data)
	c.commit(e)
}

func TestBlockCacheLRUEviction(t *testing.T) {
	// One shard, budget of 4 × 10-byte blocks.
	c := newBlockCache(40, 1, 10)
	blk := func(i int) ([]byte, blockKey) {
		return []byte(fmt.Sprintf("block-%04d", i)), blockKey{0, int64(i)}
	}
	for i := 0; i < 4; i++ {
		d, k := blk(i)
		insert(c, k, d)
	}
	// Touch block 0 so it is MRU, then insert one more: block 1 (LRU) must
	// be the victim.
	if _, ok := lookup(c, blockKey{0, 0}, 0); !ok {
		t.Fatal("block 0 missing before eviction")
	}
	d, k := blk(4)
	insert(c, k, d)
	if _, ok := lookup(c, blockKey{0, 1}, 0); ok {
		t.Fatal("LRU block 1 survived eviction")
	}
	for _, want := range []int64{0, 2, 3, 4} {
		d, ok := lookup(c, blockKey{0, want}, 10)
		if !ok {
			t.Fatalf("block %d evicted unexpectedly", want)
		}
		if exp, _ := blk(int(want)); !bytes.Equal(d, exp) {
			t.Fatalf("block %d holds %q after its neighbour's frame was recycled, want %q", want, d, exp)
		}
	}
	if got := c.shards[0].evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := c.cachedBytes(); got != 40 {
		t.Fatalf("cachedBytes = %d, want 40", got)
	}
	// A block admitted by frequency (cold) enters at the tail: it evicts
	// the LRU block, 0, and is the next victim itself.
	d, k = blk(5)
	e := reserve(c, k, 10)
	e.cold = true
	copy(e.data, d)
	c.commit(e)
	if got := fmt.Sprint(lru(&c.shards[0])); got != "[4 3 2 5]" {
		t.Fatalf("LRU %s after a cold commit, want [4 3 2 5]", got)
	}
	d, k = blk(6)
	insert(c, k, d)
	if got := fmt.Sprint(lru(&c.shards[0])); got != "[6 4 3 2]" || c.shards[0].evictions.Load() != 3 {
		t.Fatalf("LRU %s after %d evictions, want the cold block 5 evicted next: [6 4 3 2] after 3", got, c.shards[0].evictions.Load())
	}
}

func TestBlockCacheRefreshSameKey(t *testing.T) {
	c := newBlockCache(100, 1, 1)
	k := blockKey{2, 7}
	insert(c, k, []byte("abc"))
	insert(c, k, []byte("defgh"))
	d, ok := lookup(c, k, 5)
	if !ok || string(d) != "defgh" {
		t.Fatalf("refresh lost: %q %v", d, ok)
	}
	if got := c.cachedBytes(); got != 5 {
		t.Fatalf("cachedBytes = %d after refresh, want 5", got)
	}
}

func TestBlockCacheShardRounding(t *testing.T) {
	c := newBlockCache(1024, 5, 64)
	if len(c.shards) != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", len(c.shards))
	}
	if c.mask != 7 {
		t.Fatalf("mask = %d, want 7", c.mask)
	}
}

func TestBlockCacheConcurrent(t *testing.T) {
	c := newBlockCache(1<<16, 8, 64)
	c.fsBlock = 16
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := blockKey{g % 3, int64(i % 50)}
				// Every filler writes the block's own byte over the range it
				// reads — the 16-byte FS blocks the window touches, or what
				// a partial copy lacks of their hull with it; a hit must see
				// exactly that byte, read now or kept from an earlier fill.
				d := make([]byte, 16)
				from := int64(i % 48)
				f, got := c.acquire(c.shardIndex(k), k, d, from, 0, 64, 64, false, false)
				switch got {
				case claimMine:
					for j := range f.dst {
						f.dst[j] = byte(k.block)
					}
					c.commit(f.e)
				case claimHit:
					if !bytes.Equal(d, bytes.Repeat([]byte{byte(k.block)}, 16)) {
						t.Errorf("block %v at %d: copied %v", k, from, d)
						return
					}
				case claimWait:
					c.wait(k)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range c.shards {
		for k, e := range c.shards[i].items {
			if e.pending {
				t.Fatalf("block %v left pending", k)
			}
		}
	}
}

// TestReserveLeavesPinnedFrameAlone pins the recycling rule: a frame some
// copyOut is still reading (outside the shard lock) is not handed out when
// its slot is reserved again — the slot gets a new frame — and an unpinned
// one is reused in place, which is what keeps a full cache allocation-free.
func TestReserveLeavesPinnedFrameAlone(t *testing.T) {
	c := newBlockCache(10, 1, 10) // room for one 10-byte block
	k := func(i int64) blockKey { return blockKey{0, i} }
	insert(c, k(0), []byte("block-0000"))
	e := c.shards[0].items[k(0)]
	held := e.data
	e.readers.Add(1) // a copyOut of block 0 is in flight

	insert(c, k(1), []byte("block-0001")) // evicts block 0, recycles its slot
	if string(held) != "block-0000" {
		t.Fatalf("frame rewritten under its reader: %q", held)
	}
	if d, ok := lookup(c, k(1), 10); !ok || string(d) != "block-0001" {
		t.Fatalf("block 1 after recycling a pinned slot: %q %v", d, ok)
	}
	e.readers.Add(-1)

	frame := &c.shards[0].items[k(1)].data[0]
	insert(c, k(2), []byte("block-0002"))
	if got := &c.shards[0].items[k(2)].data[0]; got != frame {
		t.Fatal("an unpinned frame was not recycled in place")
	}
	if got := c.cachedBytes(); got != 10 {
		t.Fatalf("cachedBytes = %d, want 10", got)
	}
}

// TestReservationLifecycle pins the two-step insertion: a pending entry is
// charged at once but invisible to lookups until commit; abort returns its
// bytes and hands its frame to the next reservation.
func TestReservationLifecycle(t *testing.T) {
	c := newBlockCache(40, 1, 10)
	k := blockKey{0, 3}
	e := reserve(c, k, 10)
	copy(e.data, "block-0003")
	if _, ok := lookup(c, k, 10); ok {
		t.Fatal("a reservation is visible before commit")
	}
	if got := c.cachedBytes(); got != 10 {
		t.Fatalf("cachedBytes = %d with one reservation, want 10", got)
	}
	c.abort(e)
	if _, ok := lookup(c, k, 10); ok {
		t.Fatal("an aborted reservation became visible")
	}
	if got := c.cachedBytes(); got != 0 {
		t.Fatalf("cachedBytes = %d after abort, want 0", got)
	}
	again := reserve(c, blockKey{0, 4}, 10)
	if again != e || &again.data[0] != &e.data[0] {
		t.Fatal("the next reservation did not take the aborted slot and frame")
	}
	copy(again.data, "block-0004")
	c.commit(again)
	if d, ok := lookup(c, blockKey{0, 4}, 10); !ok || string(d) != "block-0004" {
		t.Fatalf("committed block: %q %v", d, ok)
	}
}

// TestPinnedSlotIsNotReused: a copy-out pinned on a block that is then
// evicted, while its shard reserves again and again, still reads the
// block's bytes — no reservation takes the pinned slot, and race builds
// poison every frame a reservation recycles — and once the pin is gone the
// slot is reused: the shard takes no new frame.
func TestPinnedSlotIsNotReused(t *testing.T) {
	c := newBlockCache(40, 1, 10) // four 10-byte blocks, one slab
	insert(c, blockKey{0, 0}, []byte("block-0000"))
	f, got := c.acquire(c.shardIndex(blockKey{0, 0}), blockKey{0, 0}, make([]byte, 10), 0, 0, 10, 10, false, true)
	if got != claimPinned {
		t.Fatalf("block 0: claim %d, want it pinned", got)
	}
	e, src := f.e, f.dst
	fill := func(from, to int64) {
		for b := from; b < to; b++ {
			insert(c, blockKey{0, b}, bytes.Repeat([]byte{byte(b)}, 10))
		}
	}
	fill(1, 13) // the fourth evicts block 0; each later one recycles a slot
	if _, ok := lookup(c, blockKey{0, 0}, 10); ok {
		t.Fatal("block 0 is still resident")
	}
	if got := string(src[:10]); got != "block-0000" {
		t.Fatalf("a pinned copy of block 0 reads %q after its slot was vacated and the shard reserved 12 times", got)
	}
	e.unpin()
	taken := c.taken
	fill(13, 25)
	if c.taken != taken {
		t.Fatalf("the cache took %d bytes of frames after the pin was released, %d before", c.taken, taken)
	}
}

// TestCommitTrimsLikeBlockByBlockInsertion: one request reserving more of a
// shard than it holds runs it over budget until its commits, which leave the
// resident set, LRU order and eviction count that inserting the blocks one
// at a time leaves.
func TestCommitTrimsLikeBlockByBlockInsertion(t *testing.T) {
	type state struct {
		resident  []int64
		evictions int64
		bytes     int64
	}
	run := func(batched bool) state {
		c := newBlockCache(40, 1, 10)       // four 10-byte blocks
		for b := int64(100); b < 103; b++ { // older residents
			insert(c, blockKey{0, b}, bytes.Repeat([]byte{byte(b)}, 10))
		}
		var held []*cacheEntry
		for b := int64(0); b < 7; b++ {
			data := bytes.Repeat([]byte{byte(b)}, 10)
			if !batched {
				insert(c, blockKey{0, b}, data)
				continue
			}
			e := reserve(c, blockKey{0, b}, 10)
			copy(e.data, data)
			held = append(held, e)
		}
		for _, e := range held {
			c.commit(e)
		}
		var st state
		s := &c.shards[0]
		for e := s.lru.next; e != &s.lru; e = e.next {
			st.resident = append(st.resident, e.key.block)
		}
		st.evictions, st.bytes = s.evictions.Load(), c.cachedBytes()
		return st
	}
	want, got := run(false), run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reserve-all-then-commit left %+v, block-by-block insertion %+v", got, want)
	}
	if want.bytes != 40 || len(want.resident) != 4 {
		t.Fatalf("block-by-block insertion left %+v, want 4 blocks in budget", want)
	}

	// Blocks admitted by frequency enter at the tail, after the trim: a
	// batch of them never evicts the block being committed, evicts as many
	// as block-by-block insertion, and ends within budget.
	c := newBlockCache(40, 1, 10)
	s := &c.shards[0]
	for b := int64(100); b < 103; b++ {
		insert(c, blockKey{0, b}, bytes.Repeat([]byte{byte(b)}, 10))
	}
	var held []*cacheEntry
	for b := int64(0); b < 7; b++ {
		e := reserve(c, blockKey{0, b}, 10)
		e.cold = true
		held = append(held, e)
	}
	for _, e := range held {
		c.commit(e)
		if s.lru.prev != e {
			t.Fatalf("block %d, committed cold, is not the LRU tail: %v", e.key.block, lru(s))
		}
	}
	if fmt.Sprint(lru(s)) != "[3 4 5 6]" || s.evictions.Load() != want.evictions || c.cachedBytes() != 40 {
		t.Fatalf("a cold batch left %v, %d bytes after %d evictions; want [3 4 5 6], 40 bytes after %d",
			lru(s), c.cachedBytes(), s.evictions.Load(), want.evictions)
	}
}

// fullShard is a one-shard cache of four 10-byte blocks, all resident,
// that has not yet had to evict: it counts no access.
func fullShard() *blockCache {
	c := newBlockCache(40, 1, 10)
	for b := int64(100); b < 104; b++ {
		insert(c, blockKey{0, b}, bytes.Repeat([]byte{byte(b)}, 10))
	}
	return c
}

// lru lists the shard's resident blocks, most recently used first.
func lru(s *cacheShard) []int64 {
	var out []int64
	for e := s.lru.next; e != &s.lru; e = e.next {
		out = append(out, e.key.block)
	}
	return out
}

// commitAs commits a claimMine entry holding data.
func commitAs(t *testing.T, c *blockCache, f fill, got claim, data string) {
	t.Helper()
	if got != claimMine {
		t.Fatalf("claim %d, want the block admitted", got)
	}
	copy(f.dst, data)
	c.commit(f.e)
}

// TestFullShardReadsFirstTouchAround: a shard starts counting at its first
// eviction. A large window's block is then admitted only if the shard was
// asked for it more than twice as often as for its LRU tail, and enters at
// the tail; otherwise it is read around the cache — no entry, no eviction,
// the resident set and its order untouched.
func TestFullShardReadsFirstTouchAround(t *testing.T) {
	c := fullShard()
	s := &c.shards[0]
	for b := int64(100); b < 104; b++ {
		lookup(c, blockKey{0, b}, 10)
	}
	if s.freq.count != nil {
		t.Fatal("a shard that never had to evict counts accesses")
	}
	// The first miss that would evict starts the count: the tail (100) has
	// never been counted, so block 7 is admitted — at the tail.
	f, got := c.acquire(c.shardIndex(blockKey{0, 7}), blockKey{0, 7}, make([]byte, 10), 0, 0, 10, 10, true, false)
	commitAs(t, c, f, got, "block-0007")
	if fmt.Sprint(lru(s)) != "[103 102 101 7]" || s.evictions.Load() != 1 {
		t.Fatalf("a block admitted by frequency: LRU %v after %d evictions, want [103 102 101 7] after 1", lru(s), s.evictions.Load())
	}
	// Block 8, asked for as often as the tail (7), and then twice as often,
	// is read around.
	for ask := 1; ask <= 2; ask++ {
		if f, got := c.acquire(c.shardIndex(blockKey{0, 8}), blockKey{0, 8}, make([]byte, 10), 0, 0, 10, 10, true, false); got != claimAround || f.e != nil {
			t.Fatalf("ask %d of a block of a full shard: claim %d, entry %v; want it read around", ask, got, f.e)
		}
		if fmt.Sprint(lru(s)) != "[103 102 101 7]" || c.cachedBytes() != 40 || s.evictions.Load() != 1 || s.readAround.Load() != int64(ask) {
			t.Fatalf("a declined block moved the shard: LRU %v, %d bytes, %d evictions, %d read around",
				lru(s), c.cachedBytes(), s.evictions.Load(), s.readAround.Load())
		}
	}
	// Asked for three times, it beats the tail it evicts: the one-off fill 7.
	f, got = c.acquire(c.shardIndex(blockKey{0, 8}), blockKey{0, 8}, make([]byte, 10), 0, 0, 10, 10, true, false)
	commitAs(t, c, f, got, "block-0008")
	if fmt.Sprint(lru(s)) != "[103 102 101 8]" {
		t.Fatalf("LRU %v, want the one-off block 7 evicted and 8 at the tail", lru(s))
	}
	// Its first hit moves it to the front.
	if d, ok := lookup(c, blockKey{0, 8}, 10); !ok || string(d) != "block-0008" || fmt.Sprint(lru(s)) != "[8 103 102 101]" {
		t.Fatalf("first hit of an admitted block: %q %v, LRU %v", d, ok, lru(s))
	}
}

// TestAdmissionNeedsAFullShardAndALargeWindow: a full shard that declines
// large windows admits a small one's block, at the front; a shard with
// room admits a large one, at the front, and counts nothing.
func TestAdmissionNeedsAFullShardAndALargeWindow(t *testing.T) {
	c := fullShard()
	s := &c.shards[0]
	s.freq.init(4, ablation{})
	for b := int64(100); b < 104; b++ {
		lookup(c, blockKey{0, b}, 10)
	}
	if _, got := c.acquire(c.shardIndex(blockKey{0, 1}), blockKey{0, 1}, make([]byte, 10), 0, 0, 10, 10, true, false); got != claimAround {
		t.Fatalf("large window on a full shard: claim %d, want it read around", got)
	}
	f, got := c.acquire(c.shardIndex(blockKey{0, 2}), blockKey{0, 2}, make([]byte, 10), 0, 0, 10, 10, false, false)
	commitAs(t, c, f, got, "block-0002")
	if fmt.Sprint(lru(s)) != "[2 103 102 101]" {
		t.Fatalf("small window on a full shard: LRU %v, want it admitted at the front", lru(s))
	}
	roomy := newBlockCache(40, 1, 10)
	insert(roomy, blockKey{0, 100}, make([]byte, 10))
	f, got = roomy.acquire(roomy.shardIndex(blockKey{0, 1}), blockKey{0, 1}, make([]byte, 10), 0, 0, 10, 10, true, false)
	commitAs(t, roomy, f, got, "block-0001")
	if r := &roomy.shards[0]; fmt.Sprint(lru(r)) != "[1 100]" || r.freq.count != nil {
		t.Fatalf("large window on a shard with room: LRU %v, counting %v; want admitted at the front, nothing counted", lru(r), r.freq.count != nil)
	}
}

// TestFreqSketchSaturatesAndHalves: the sketch is sized from the blocks a
// shard holds, its counters stop at 15, and every counter is halved once
// four times as many accesses as it has counters were recorded.
func TestFreqSketchSaturatesAndHalves(t *testing.T) {
	for blocks, want := range map[int64]int{1: 64, 8: 64, 9: 128, 100: 1024} {
		var f freqSketch
		f.init(blocks, ablation{})
		if len(f.count) != want {
			t.Fatalf("%d blocks: %d counters, want %d", blocks, len(f.count), want)
		}
	}
	var f freqSketch
	f.init(4, ablation{})
	k := blockKey{3, 9}
	for i := 0; i < 20; i++ {
		f.record(k)
	}
	if f.est(k) != 15 {
		t.Fatalf("20 accesses estimated %d, want the counter saturated at 15", f.est(k))
	}
	for b := int64(0); f.seen != 0; b++ {
		f.record(blockKey{0, b})
	}
	if f.est(k) != 7 {
		t.Fatalf("after %d accesses the estimate is %d, want 15 halved", 4*len(f.count), f.est(k))
	}
}

// TestNodeHoldsItsWholeBudget: at steady state a cache holds its budget
// rounded down to whole blocks, with the leftover blocks on the first
// shards, for each of the ladder's per-node budgets (a third of the
// workload's cache rounded up to 4 KiB, in the default 32 KiB blocks over
// the default shards). Split evenly in bytes, every shard stranded a part
// block: serve-cold's 2 796 544 B over 16 shards held 16 × 5 blocks.
func TestNodeHoldsItsWholeBudget(t *testing.T) {
	for _, cache := range []int64{32 << 20, 64 << 20, 256 << 20, 8 << 20} {
		node := (cache/3 + 4095) / 4096 * 4096
		cfg := resolveConfig(&Config{CacheBytes: node}, 4096, fsio.Capabilities{})
		c := newBlockCache(cfg.CacheBytes, cfg.Shards, cfg.BlockBytes)
		blocks := node / cfg.BlockBytes
		data := make([]byte, cfg.BlockBytes)
		for b := int64(0); b < 4*blocks; b++ {
			insert(c, blockKey{0, b}, data)
		}
		if got, want := c.cachedBytes(), blocks*cfg.BlockBytes; got != want {
			t.Errorf("a %d-byte node over %d shards holds %d bytes, want its %d whole blocks, %d bytes",
				node, len(c.shards), got, blocks, want)
		}
	}
}
