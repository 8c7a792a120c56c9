package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

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
	if _, ok := c.get(blockKey{0, 0}); !ok {
		t.Fatal("block 0 missing before eviction")
	}
	d, k := blk(4)
	c.put(k, d)
	if _, ok := c.get(blockKey{0, 1}); ok {
		t.Fatal("LRU block 1 survived eviction")
	}
	for _, want := range []int64{0, 2, 3, 4} {
		if _, ok := c.get(blockKey{0, want}); !ok {
			t.Fatalf("block %d evicted unexpectedly", want)
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
	d, ok := c.get(k)
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
			data := make([]byte, 64)
			for i := 0; i < 500; i++ {
				k := blockKey{g % 3, int64(i % 50)}
				if d, ok := c.get(k); ok && len(d) != 64 {
					t.Errorf("wrong block size %d", len(d))
					return
				}
				c.put(k, data)
			}
		}(g)
	}
	wg.Wait()
}
