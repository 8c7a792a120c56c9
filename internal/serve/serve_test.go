package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

// testPayload is the deterministic per-rank payload used across the tests.
func testPayload(rank, size int) []byte {
	out := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// writeMultifile writes an n-task multifile (two physical files, ~2.5
// chunks per task) and returns each rank's payload.
func writeMultifile(t testing.TB, fsys fsio.FileSystem, name string, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for r := range payloads {
		payloads[r] = testPayload(r, 2500+37*r)
	}
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, NFiles: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(payloads[c.Rank()]); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	return payloads
}

func TestServeByteIdentity(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 8)
	s, err := New(fsys, "s.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r, want := range payloads {
		h, err := s.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		if h.LogicalSize() != int64(len(want)) {
			t.Fatalf("rank %d: LogicalSize %d, want %d", r, h.LogicalSize(), len(want))
		}
		got, err := io.ReadAll(h)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: sequential read differs from payload", r)
		}
		// Random-access windows, including chunk-spanning and tail reads.
		for _, win := range [][2]int64{{0, 10}, {1000, 600}, {int64(len(want)) - 7, 7}, {300, 1}} {
			buf := make([]byte, win[1])
			if _, err := h.ReadLogicalAt(buf, win[0]); err != nil {
				t.Fatalf("rank %d: ReadLogicalAt(%v): %v", r, win, err)
			}
			if !bytes.Equal(buf, want[win[0]:win[0]+win[1]]) {
				t.Fatalf("rank %d: ReadLogicalAt(%v) differs", r, win)
			}
		}
		// Past-the-end reads are short with io.EOF.
		buf := make([]byte, 16)
		if n, err := h.ReadLogicalAt(buf, h.LogicalSize()-4); err != io.EOF || n != 4 {
			t.Fatalf("rank %d: tail read got (%d, %v), want (4, EOF)", r, n, err)
		}
	}
	st := s.Stats()
	if st.BackendReads == 0 || st.Misses == 0 {
		t.Fatalf("stats show no backend traffic: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("re-reads should hit the cache: %+v", st)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 12
	payloads := writeMultifile(t, fsys, "c.sion", n)
	s, err := New(fsys, "c.sion", &Config{CacheBytes: 1 << 20, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rank := c % n
			want := payloads[rank]
			h, err := s.Open(rank)
			if err != nil {
				errs <- err
				return
			}
			// Mixed sequential and random access, zipf-ish repetition of
			// the same offsets across clients to exercise singleflight.
			got, err := io.ReadAll(h)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: sequential bytes differ", c)
				return
			}
			for i := 0; i < 20; i++ {
				off := int64((c*131 + i*977) % (len(want) - 64))
				buf := make([]byte, 64)
				if _, err := h.ReadLogicalAt(buf, off); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if !bytes.Equal(buf, want[off:off+64]) {
					errs <- fmt.Errorf("client %d: random window at %d differs", c, off)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	var total int64
	for _, p := range payloads {
		total += int64(len(p))
	}
	// 64 clients each read a full rank plus 20 windows; without the cache
	// that is ≥64 full streams of backend traffic. The cache must have
	// reduced backend bytes to far less than the logical bytes served.
	if st.ServedBytes < 5*total {
		t.Fatalf("expected ≥5x logical over-read, served %d of %d total", st.ServedBytes, total)
	}
	if st.BackendBytes > st.ServedBytes/2 {
		t.Fatalf("cache ineffective: backend %d vs served %d bytes", st.BackendBytes, st.ServedBytes)
	}
	if st.HandlesOpened != clients {
		t.Fatalf("HandlesOpened = %d, want %d", st.HandlesOpened, clients)
	}
}

func TestServeTinyCacheStaysCorrect(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "t.sion", 6)
	// Budget of ~4 blocks forces constant eviction.
	s, err := New(fsys, "t.sion", &Config{CacheBytes: 1024, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		for r, want := range payloads {
			h, err := s.Open(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d rank %d: bytes differ under eviction pressure", pass, r)
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with a 1 KiB budget: %+v", st)
	}
	if st.CachedBytes > 2*1024 {
		t.Fatalf("resident bytes %d far exceed the budget", st.CachedBytes)
	}
}

func TestServeKeyReaderThroughCache(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 4
	type rec struct {
		key uint64
		val []byte
	}
	recs := make([][]rec, n)
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "k.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 512, FSBlockSize: 128,
		})
		if err != nil {
			t.Error(err)
			return
		}
		w, err := sion.NewKeyWriter(f)
		if err != nil {
			t.Error(err)
			return
		}
		var rs []rec
		for i := 0; i < 12; i++ {
			r := rec{key: uint64(i % 3), val: testPayload(c.Rank()*100+i, 40+i)}
			rs = append(rs, r)
			if err := w.WriteKey(r.key, r.val); err != nil {
				t.Error(err)
				return
			}
		}
		recs[c.Rank()] = rs
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	s, err := New(fsys, "k.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r := 0; r < n; r++ {
		h, err := s.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := h.KeyReader()
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for key := uint64(0); key < 3; key++ {
			var want []byte
			for _, rc := range recs[r] {
				if rc.key == key {
					want = append(want, rc.val...)
				}
			}
			got, err := kr.ReadKey(key)
			if err != nil {
				t.Fatalf("rank %d key %d: %v", r, key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rank %d key %d: stream differs", r, key)
			}
		}
	}
}

func TestServeOpenValidatesRank(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "v.sion", 3)
	s, err := New(fsys, "v.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Open(-1); err == nil {
		t.Fatal("Open(-1) accepted")
	}
	if _, err := s.Open(3); err == nil {
		t.Fatal("Open(ntasks) accepted")
	}
	p := make([]byte, 8)
	if err := s.ReadFileAt(2, p, 0, nil); err == nil {
		t.Fatal("ReadFileAt of physical file 2 of 2 accepted")
	}
	if err := s.ReadFileAt(0, p, -1, nil); err == nil {
		t.Fatal("ReadFileAt at a negative offset accepted")
	}
}

func TestServeCloseRejectsReads(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "x.sion", 2)
	s, err := New(fsys, "x.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := h.ReadLogicalAt(make([]byte, 8), 0); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

func TestServeSeekWhence(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "w.sion", 2)
	s, err := New(fsys, "w.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, _ := s.Open(1)
	want := payloads[1]
	if _, err := h.Seek(-10, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[len(want)-10:]) {
		t.Fatal("SeekEnd tail read differs")
	}
	if _, err := h.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative Seek accepted")
	}
	if pos, err := h.Seek(-20, io.SeekCurrent); err != nil || pos != int64(len(want))-20 {
		t.Fatalf("SeekCurrent back 20 from the end: (%d, %v)", pos, err)
	}
	if _, err := h.Seek(0, 3); err == nil {
		t.Fatal("whence 3 accepted")
	}
}

// TestResolveConfigBlockRule pins the default cache block: the smallest
// multiple of the FS block that is at least minCacheBlock, so FS blocks of
// 32 KiB or more are kept as they are. An explicit BlockBytes wins. The
// default shard count is one shard per minShardBlocks blocks, a power of
// two, at most 16; every count then halves until each shard holds a
// block.
func TestResolveConfigBlockRule(t *testing.T) {
	for _, tc := range []struct {
		fsblk, cfgBlock, want int64
	}{
		{256, 0, 32 << 10},
		{4 << 10, 0, 32 << 10},
		{6 << 10, 0, 36 << 10},
		{16 << 10, 0, 32 << 10},
		{32 << 10, 0, 32 << 10},
		{64 << 10, 0, 64 << 10},
		{2 << 20, 0, 2 << 20},
		{4 << 10, 4 << 10, 4 << 10},
		{256, 1000, 1000},
	} {
		c := resolveConfig(&Config{BlockBytes: tc.cfgBlock}, tc.fsblk, fsio.Capabilities{})
		if c.BlockBytes != tc.want {
			t.Errorf("FS block %d, BlockBytes %d: cache block %d, want %d", tc.fsblk, tc.cfgBlock, c.BlockBytes, tc.want)
		}
	}
	for _, tc := range []struct {
		cache        int64
		shards, want int
	}{
		{128 << 10, 16, 4}, // 4 blocks: one each
		{100 << 10, 3, 2},  // 3 blocks: 3 rounds up to 4, halves to 2
		{128 << 10, 0, 1},  // the default: too few blocks for two shards of 16
		{1 << 20, 0, 2},    // 32 blocks: 2 shards of 16
		{4 << 20, 0, 8},    // 128 blocks: 8 shards of 16
		{8 << 20, 0, 16},   // 256 blocks: the default 16
		{64 << 20, 0, 16},  // 2048 blocks: never more than 16
		{8 << 20, 16, 16},  // 256 blocks, 16 asked for: as the default
		{2796544, 0, 4},    // serve-cold's cluster node: 85 blocks, 4 shards of 21 or 22
		{2796544, 16, 16},  // the same, 16 asked for: 5 or 6 blocks a shard
	} {
		if c := resolveConfig(&Config{CacheBytes: tc.cache, Shards: tc.shards}, 4<<10, fsio.Capabilities{}); c.Shards != tc.want {
			t.Errorf("%d-byte budget of 32 KiB blocks, %d shards asked for: %d shards, want %d", tc.cache, tc.shards, c.Shards, tc.want)
		}
	}
	// A backend's preferred request size is the default span gap.
	if c := resolveConfig(nil, 4<<10, fsio.Capabilities{PreferredRequestBytes: 1 << 20}); c.MaxSpanGap != 1<<20 {
		t.Errorf("span gap %d under a 1 MiB preferred request, want 1 MiB", c.MaxSpanGap)
	}
}

// TestServeZeroLengthReadTouchesNothing: an empty read covers no block,
// so at any offset it counts no hit or miss and issues no backend read.
func TestServeZeroLengthReadTouchesNothing(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "z.sion", 4)
	s, err := New(fsys, "z.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats()
	for _, off := range []int64{0, 100, 256, 1000} { // block start, mid-block, next block
		if err := s.ReadFileAt(0, nil, off, nil); err != nil {
			t.Fatalf("empty read at %d: %v", off, err)
		}
	}
	if st := s.Stats(); st.Hits != before.Hits || st.Misses != before.Misses || st.BackendReads != before.BackendReads {
		t.Fatalf("empty reads moved the counters: %+v -> %+v", before, st)
	}
}
