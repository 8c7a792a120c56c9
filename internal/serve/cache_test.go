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

func TestBlockCacheLRUEviction(t *testing.T) {
	// One shard, budget of 4 × 10-byte blocks.
	c := newBlockCache(40, 1)
	c.shards[0].evictions = &obs.Counter{}
	blk := func(i int) ([]byte, blockKey) {
		return []byte(fmt.Sprintf("block-%04d", i)), blockKey{0, int64(i)}
	}
	for i := 0; i < 4; i++ {
		d, k := blk(i)
		c.put(k, d)
	}
	// Touch block 0 so it is MRU, then insert one more: block 1 (LRU) must
	// be the victim.
	if _, ok := lookup(c, blockKey{0, 0}, 0); !ok {
		t.Fatal("block 0 missing before eviction")
	}
	d, k := blk(4)
	c.put(k, d)
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
	c.put(k, []byte("abc"))
	c.put(k, []byte("defgh"))
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
			data := bytes.Repeat([]byte{1}, 64)
			for i := 0; i < 500; i++ {
				k := blockKey{g % 3, int64(i % 50)}
				// A 64-byte block fills exactly the first 64 of 65 bytes.
				if d, ok := lookup(c, k, 65); ok && (d[63] != 1 || d[64] != 0) {
					t.Errorf("wrong block size: copied bytes end %v", d[62:])
					return
				}
				c.put(k, data)
			}
		}(g)
	}
	wg.Wait()
}

// TestPutLeavesPinnedFrameAlone pins the recycling rule: a frame some
// copyOut is still reading (outside the shard lock) is not rewritten when
// its slot is recycled — the slot gets a new frame — and an unpinned one is
// rewritten in place, which is what keeps a full cache allocation-free.
func TestPutLeavesPinnedFrameAlone(t *testing.T) {
	c := newBlockCache(10, 1) // room for one 10-byte block
	k := func(i int64) blockKey { return blockKey{0, i} }
	c.put(k(0), []byte("block-0000"))
	e := c.shards[0].items[k(0)]
	held := e.data
	e.readers.Add(1) // a copyOut of block 0 is in flight

	c.put(k(1), []byte("block-0001")) // evicts block 0, recycles its slot
	if string(held) != "block-0000" {
		t.Fatalf("frame rewritten under its reader: %q", held)
	}
	if d, ok := lookup(c, k(1), 10); !ok || string(d) != "block-0001" {
		t.Fatalf("block 1 after recycling a pinned slot: %q %v", d, ok)
	}
	e.readers.Add(-1)

	frame := &c.shards[0].items[k(1)].data[0]
	c.put(k(2), []byte("block-0002"))
	if got := &c.shards[0].items[k(2)].data[0]; got != frame {
		t.Fatal("an unpinned frame was not recycled in place")
	}
	if got := c.cachedBytes(); got != 10 {
		t.Fatalf("cachedBytes = %d, want 10", got)
	}
}
