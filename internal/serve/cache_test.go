package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
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
	s := c.shard(k)
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
	c := newBlockCache(40, 1)
	c.shards[0].evictions = &obs.Counter{}
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
	if got := c.shards[0].evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := c.cachedBytes(); got != 40 {
		t.Fatalf("cachedBytes = %d, want 40", got)
	}
}

func TestBlockCacheRefreshSameKey(t *testing.T) {
	c := newBlockCache(100, 1)
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
	c := newBlockCache(1024, 5)
	if len(c.shards) != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", len(c.shards))
	}
	if c.mask != 7 {
		t.Fatalf("mask = %d, want 7", c.mask)
	}
}

func TestBlockCacheConcurrent(t *testing.T) {
	c := newBlockCache(1<<16, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := blockKey{g % 3, int64(i % 50)}
				// Every filler writes the block's own byte over the range it
				// holds — 32 bytes around the window, or all 64 when it
				// replaces a partial copy; a hit must see exactly that byte.
				d := make([]byte, 16)
				from := int64(i % 48)
				e, got := c.acquire(k, d, from, from&^15, from&^15+32, 64, false)
				switch got {
				case claimMine:
					for j := e.lo; j < e.hi; j++ {
						e.data[j] = byte(k.block)
					}
					c.commit(e)
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
	c := newBlockCache(10, 1) // room for one 10-byte block
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
	c := newBlockCache(40, 1)
	c.shards[0].evictions = &obs.Counter{}
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
		c := newBlockCache(40, 1) // four 10-byte blocks
		c.shards[0].evictions = &obs.Counter{}
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
		st.evictions, st.bytes = s.evictions.Value(), c.cachedBytes()
		return st
	}
	want, got := run(false), run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reserve-all-then-commit left %+v, block-by-block insertion %+v", got, want)
	}
	if want.bytes != 40 || len(want.resident) != 4 {
		t.Fatalf("block-by-block insertion left %+v, want 4 blocks in budget", want)
	}
}

// fullShard is a one-shard cache of four 10-byte blocks, all resident.
func fullShard() *blockCache {
	c := newBlockCache(40, 1)
	c.shards[0].evictions, c.shards[0].readAround = &obs.Counter{}, &obs.Counter{}
	for b := int64(100); b < 104; b++ {
		insert(c, blockKey{0, b}, bytes.Repeat([]byte{byte(b)}, 10))
	}
	return c
}

// TestFullShardReadsFirstTouchAround: a full shard declines a block it has
// never declined when the reader's window is large — no entry, no
// eviction, the resident set untouched — and admits it on its second miss.
func TestFullShardReadsFirstTouchAround(t *testing.T) {
	c := fullShard()
	s := &c.shards[0]
	k := blockKey{0, 7}
	if e, got := c.acquire(k, make([]byte, 10), 0, 0, 10, 10, true); got != claimAround || e != nil {
		t.Fatalf("first touch of a full shard: claim %d, entry %v; want it read around", got, e)
	}
	if len(s.items) != 4 || c.cachedBytes() != 40 || s.evictions.Value() != 0 || s.readAround.Value() != 1 {
		t.Fatalf("a declined block moved the shard: %d items, %d bytes, %d evictions, %d read around",
			len(s.items), c.cachedBytes(), s.evictions.Value(), s.readAround.Value())
	}
	e, got := c.acquire(k, make([]byte, 10), 0, 0, 10, 10, true)
	if got != claimMine {
		t.Fatalf("second miss of a declined block: claim %d, want it admitted", got)
	}
	copy(e.data, "block-0007")
	c.commit(e)
	if d, ok := lookup(c, k, 10); !ok || string(d) != "block-0007" || s.evictions.Value() != 1 {
		t.Fatalf("admitted block: %q %v after %d evictions", d, ok, s.evictions.Value())
	}
	if _, ok := s.declined[k]; ok {
		t.Fatal("an admitted block is still remembered as declined")
	}
}

// TestAdmissionNeedsAFullShardAndALargeWindow: a small window is admitted
// by a full shard, and a shard with room admits a large one, both at the
// first miss and without remembering anything.
func TestAdmissionNeedsAFullShardAndALargeWindow(t *testing.T) {
	c := fullShard()
	if _, got := c.acquire(blockKey{0, 1}, make([]byte, 10), 0, 0, 10, 10, false); got != claimMine {
		t.Fatalf("small window on a full shard: claim %d, want admitted", got)
	}
	roomy := newBlockCache(40, 1)
	insert(roomy, blockKey{0, 100}, make([]byte, 10))
	if _, got := roomy.acquire(blockKey{0, 1}, make([]byte, 10), 0, 0, 10, 10, true); got != claimMine {
		t.Fatalf("large window on a shard with room: claim %d, want admitted", got)
	}
	if c.shards[0].ring != nil || roomy.shards[0].ring != nil {
		t.Fatal("an admitted first miss was remembered as declined")
	}
}

// TestDeclinedRingIsBounded: the declined keys of a shard fit one slot per
// block it holds; the oldest is forgotten — declined again at its next
// miss — while the latest ones are still admitted.
func TestDeclinedRingIsBounded(t *testing.T) {
	c := fullShard() // 4 blocks: 4 slots
	s := &c.shards[0]
	for b := int64(0); b < 100; b++ {
		if _, got := c.acquire(blockKey{0, b}, nil, 0, 0, 10, 10, true); got != claimAround {
			t.Fatalf("block %d, first touch: claim %d", b, got)
		}
		if len(s.ring) != 4 || len(s.declined) > 4 {
			t.Fatalf("after %d declines the ring has %d slots indexing %d keys, want at most 4", b+1, len(s.ring), len(s.declined))
		}
	}
	if _, got := c.acquire(blockKey{0, 95}, nil, 0, 0, 10, 10, true); got != claimAround {
		t.Fatalf("block 95, five declines ago: claim %d, want it forgotten and declined", got)
	}
	e, got := c.acquire(blockKey{0, 99}, nil, 0, 0, 10, 10, true)
	if got != claimMine {
		t.Fatalf("block 99, two declines ago: claim %d, want admitted", got)
	}
	c.abort(e)
	// 95 took the slot of the oldest, 96; 99 was admitted.
	if fmt.Sprint(s.declined) != fmt.Sprint(map[blockKey]int{{0, 95}: 0, {0, 97}: 1, {0, 98}: 2}) {
		t.Fatalf("remembered %v, want 95, 97 and 98", s.declined)
	}
}
