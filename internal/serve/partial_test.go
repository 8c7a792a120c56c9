package serve

import (
	"bytes"
	"io"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

// partialServer serves a 4-rank multifile of 64 KiB ranks on fsio.OS with
// 4 KiB FS blocks, so the default cache block is eight of them (32 KiB).
func partialServer(t *testing.T, fsys fsio.FileSystem, cfg *Config) (*Server, []byte) {
	t.Helper()
	raw := writeOneFile(t, fsys, "p.sion", 4, 64<<10, 4096)
	s, err := New(fsys, "p.sion", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.BlockBytes() != 8*4096 {
		t.Fatalf("cache block %d, want eight 4 KiB FS blocks", s.BlockBytes())
	}
	return s, raw
}

// blockOff is where cache block b of physical file 0 starts in the file:
// blocks lie on the file's chunk grid (sion.Layout.GridShift).
func blockOff(s *Server, b int64) int64 { return b*s.blockBytes - s.shift[0] }

// readCheck reads n bytes at off through r and compares them with the file.
func readCheck(t *testing.T, r FileReaderAt, raw []byte, off, n int64) {
	t.Helper()
	p := bytes.Repeat([]byte{0xAA}, int(n))
	if err := r.ReadFileAt(0, p, off, nil); err != nil {
		t.Fatalf("%d bytes at %d: %v", n, off, err)
	}
	if !bytes.Equal(p, wantWindow(raw, off, n)) {
		t.Fatalf("%d bytes at %d differ from the file", n, off)
	}
}

// TestPartialFrameReadsOnlyItsFSBlocks: a cold 4 KiB window reads the FS
// blocks it touches — one backend read of at most 8 KiB, not the 32 KiB
// cache block; a second window of the block next to them reads only its
// own two FS blocks; after that both windows hit.
func TestPartialFrameReadsOnlyItsFSBlocks(t *testing.T) {
	s, raw := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
	first, second := blockOff(s, 2)+1000, blockOff(s, 2)+10000 // block 2: FS blocks 0-1, then 2-3 of 8

	readCheck(t, s, raw, first, 4096)
	st := s.Stats()
	if st.BackendReads != 1 || st.BackendBytes > 8192 {
		t.Fatalf("a cold 4 KiB window: %d backend reads of %d bytes, want 1 of at most 8192", st.BackendReads, st.BackendBytes)
	}
	readCheck(t, s, raw, second, 4096)
	next := s.Stats()
	if d := next.BackendReads - st.BackendReads; d != 1 || next.BackendBytes-st.BackendBytes != 8192 {
		t.Fatalf("a window outside the partial frame: %d backend reads of %d bytes, want 1 read of its 8192",
			d, next.BackendBytes-st.BackendBytes)
	}
	for _, off := range []int64{first, second} {
		readCheck(t, s, raw, off, 4096)
	}
	if end := s.Stats(); end.BackendReads != next.BackendReads || end.Hits-next.Hits != 2 {
		t.Fatalf("re-reading both windows: %+v -> %+v, want 2 hits and no backend read", next, end)
	}
}

// TestSequentialSmallReadsStayProportional: a cold rank read front to back
// in small requests costs each cache block one read of the first request's
// FS blocks and one of the rest of the block, which the next request that
// starts inside or right after the frame reads. So the backend makes at
// most two reads per cache block the rank touches (a rank need not start
// on a cache block) and moves at most 1.25 times the rank's bytes plus one
// block, and later requests hit: aligned 4 KiB requests and 3000-byte ones
// that share FS blocks alike.
func TestSequentialSmallReadsStayProportional(t *testing.T) {
	for _, size := range []int{4096, 3000} {
		s, _ := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
		h, err := s.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		requests := int64(0)
		for buf := make([]byte, size); ; requests++ {
			n, err := h.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, testPayload(1, 64<<10)) {
			t.Fatalf("%d-byte requests: rank 1 read back wrong bytes", size)
		}
		st := s.Stats()
		limit := h.LogicalSize()*5/4 + s.BlockBytes()
		reads := 2 * ((h.LogicalSize()+s.BlockBytes()-1)/s.BlockBytes() + 1)
		if st.BackendBytes > limit || st.BackendReads > reads || st.BackendReads > requests {
			t.Fatalf("sequential %d-byte reads of %d bytes: %d backend reads of %d bytes, want at most %d of at most %d",
				size, h.LogicalSize(), st.BackendReads, st.BackendBytes, min(reads, requests), limit)
		}
		if st.Hits == 0 {
			t.Fatalf("no sequential %d-byte read hit: %+v", size, st)
		}
	}
}

// TestPartialFrameExtends: a window a partly resident block does not
// cover extends its frame to the hull of the two ranges — to the block's
// end if the window starts inside the frame or right after it — and the
// backend reads only what the frame lacks of it, except where a window
// runs past an edge of the block, which its read must reach: a span joins
// it to its neighbour there. Every byte read is checked.
func TestPartialFrameExtends(t *testing.T) {
	t.Run("two windows in one block", func(t *testing.T) {
		s, raw := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
		for _, step := range []struct {
			off, n, bytes int64 // a window of block 2, and the backend bytes it costs
		}{
			{12000, 4096, 8192}, // FS blocks 2-3
			{21000, 2000, 8192}, // FS block 5, above the frame: the gap to it, FS block 4, too
			{6000, 6000, 4096},  // FS blocks 1-2: 1 lacking, below the frame
			{24000, 1000, 8192}, // FS blocks 5-6, from inside the frame: the rest of the block, 6-7
			{5000, 27000, 0},    // inside the frame [4 KiB, 32 KiB): a hit
			{100, 100, 4096},    // FS block 0
			{0, 32 << 10, 0},    // the whole block: a hit
		} {
			before := s.Stats()
			readCheck(t, s, raw, blockOff(s, 2)+step.off, step.n)
			st := s.Stats()
			reads, bytes := st.BackendReads-before.BackendReads, st.BackendBytes-before.BackendBytes
			if want := min(step.bytes, 1); reads != want || bytes != step.bytes {
				t.Fatalf("%d bytes at %d of a partly resident block: %d backend reads of %d bytes, want %d of %d",
					step.n, step.off, reads, bytes, want, step.bytes)
			}
		}
	})

	t.Run("a window's interior block", func(t *testing.T) {
		s, raw := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
		bs := s.BlockBytes()
		readCheck(t, s, raw, blockOff(s, 2)+29000, 100) // block 2 holds FS block 7, the end of the window's first block
		readCheck(t, s, raw, blockOff(s, 3)+1000, 100)  // block 3 holds FS block 0, the start of its interior block
		before := s.Stats()
		// Blocks 2-4 from block 2's FS block 4: block 2 reads FS blocks 4-7
		// (its read must reach the block's end), block 3 all eight, block 4
		// FS block 0 — one span, one backend read.
		readCheck(t, s, raw, blockOff(s, 2)+20000, bs-20000+bs+3000)
		st := s.Stats()
		if reads, bytes := st.BackendReads-before.BackendReads, st.BackendBytes-before.BackendBytes; reads != 1 || bytes != 16384+bs+4096 {
			t.Fatalf("a window over partly resident blocks: %d backend reads of %d bytes, want 1 of %d", reads, bytes, 16384+bs+4096)
		}
	})

	t.Run("at a live frontier", func(t *testing.T) {
		fsys := fsio.NewOS(t.TempDir())
		payload := testPayload(5, 4096)
		// committed has room for both commits, so a writer the test body
		// abandons (t.Fatal, then the deferred close of resume) still ends.
		committed, resume, done := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			mpi.Run(1, func(c *mpi.Comm) {
				f, err := sion.ParOpen(c, fsys, "l.sion", sion.WriteMode, &sion.Options{
					ChunkSize: 4096, FSBlockSize: 4096, Watermarks: true,
				})
				if err != nil {
					t.Error(err)
					close(committed)
					return
				}
				for _, part := range [][]byte{payload[:1000], payload[1000:2500]} {
					if _, err := f.Write(part); err != nil {
						t.Error(err)
					}
					if err := f.Flush(); err != nil {
						t.Error(err)
					}
					committed <- struct{}{}
					<-resume
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
		}()
		defer func() { close(resume); <-done }()
		<-committed
		s, err := New(fsys, "l.sion", &Config{CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h, err := s.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		ext := s.Layout().RankBlocks(0)[0]
		block := (ext.Off + s.shift[ext.File]) / s.BlockBytes()
		got := make([]byte, 2500)
		if n, err := h.ReadLogicalAt(got[:1000], 0); n != 1000 || err != nil {
			t.Fatalf("the first commit: (%d, %v)", n, err)
		}
		resume <- struct{}{}
		<-committed
		if _, err := s.Poll(); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if n, err := h.ReadLogicalAt(got[1000:], 1000); n != 1500 || err != nil {
			t.Fatalf("the second commit: (%d, %v)", n, err)
		}
		if !bytes.Equal(got, payload[:2500]) {
			t.Fatal("the committed bytes differ")
		}
		st := s.Stats()
		if reads, bytes := st.BackendReads-before.BackendReads, st.BackendBytes-before.BackendBytes; reads != 1 || bytes != 1500 {
			t.Fatalf("a window past the old frontier: %d backend reads of %d bytes, want 1 of the 1500 newly committed", reads, bytes)
		}
		if !s.Peek(ext.File, block, got, 0) || s.Peek(ext.File, block, make([]byte, 2501), 0) {
			t.Fatal("the frame does not hold exactly the committed 2500 bytes")
		}
	})
}

// TestPeerFillPartialRange: a node that misses a window a peer holds only
// part of a block for fills exactly that range from the peer, with no
// backend read; a window outside it falls through to the backend.
func TestPeerFillPartialRange(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	a, raw := partialServer(t, fsys, &Config{CacheBytes: 1 << 20})
	b, err := New(fsys, "p.sion", &Config{
		CacheBytes: 1 << 20,
		PeerFill:   func(file int, block int64, dst []byte, from int64) bool { return a.Peek(file, block, dst, from) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	off := blockOff(a, 3) + 5000

	readCheck(t, a, raw, off, 2000)
	readCheck(t, b, raw, off, 2000)
	if st := b.Stats(); st.BackendReads != 0 || st.PeerFills != 1 {
		t.Fatalf("peer fill of a partial range: %+v, want 1 peer fill and no backend read", st)
	}
	fs := make([]byte, 4096)
	if !a.Peek(0, 3, fs, 4096) || a.Peek(0, 3, fs, 0) || a.Peek(0, 3, fs, 8192) {
		t.Fatal("the peer does not hold exactly FS block 1 of block 3, [4096, 8192)")
	}
	readCheck(t, b, raw, blockOff(a, 3)+12000, 2000) // outside the peer's range
	if st := b.Stats(); st.BackendReads != 1 || st.PeerFills != 1 {
		t.Fatalf("a window the peer does not hold: %+v, want it read from the backend", st)
	}
}
