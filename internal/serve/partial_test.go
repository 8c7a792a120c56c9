package serve

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/fsio"
)

// partialServer serves a 4-rank multifile of 64 KiB ranks on fsio.OS with
// 4 KiB FS blocks, so the default cache block is four of them (16 KiB).
func partialServer(t *testing.T, fsys fsio.FileSystem, cfg *Config) (*Server, []byte) {
	t.Helper()
	raw := writeOneFile(t, fsys, "p.sion", 4, 64<<10, 4096)
	s, err := New(fsys, "p.sion", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.BlockBytes() != 4*4096 {
		t.Fatalf("cache block %d, want four 4 KiB FS blocks", s.BlockBytes())
	}
	return s, raw
}

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
// blocks it touches — one backend read of at most 8 KiB, not the 16 KiB
// cache block; a second window of the block outside them reads the whole
// block once; after that both windows hit.
func TestPartialFrameReadsOnlyItsFSBlocks(t *testing.T) {
	s, raw := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
	bs := s.BlockBytes()
	first, second := 2*bs+1000, 2*bs+10000 // block 2: FS blocks 0-1, then 2-3

	readCheck(t, s, raw, first, 4096)
	st := s.Stats()
	if st.BackendReads != 1 || st.BackendBytes > 8192 {
		t.Fatalf("a cold 4 KiB window: %d backend reads of %d bytes, want 1 of at most 8192", st.BackendReads, st.BackendBytes)
	}
	readCheck(t, s, raw, second, 4096)
	next := s.Stats()
	if d := next.BackendReads - st.BackendReads; d != 1 || next.BackendBytes-st.BackendBytes != bs {
		t.Fatalf("a window outside the partial frame: %d backend reads of %d bytes, want 1 whole-block read of %d",
			d, next.BackendBytes-st.BackendBytes, bs)
	}
	for _, off := range []int64{first, second} {
		readCheck(t, s, raw, off, 4096)
	}
	if end := s.Stats(); end.BackendReads != next.BackendReads || end.Hits-next.Hits != 2 {
		t.Fatalf("re-reading both windows: %+v -> %+v, want 2 hits and no backend read", next, end)
	}
}

// TestSequentialSmallReadsStayProportional: a cold rank read front to back
// in 4 KiB requests costs each cache block one partial and one whole-block
// read at most, so the backend moves at most 1.25 times the rank's bytes
// plus one block (a rank need not start on a cache block).
func TestSequentialSmallReadsStayProportional(t *testing.T) {
	s, _ := partialServer(t, fsio.NewOS(t.TempDir()), &Config{CacheBytes: 1 << 20})
	h, err := s.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for buf := make([]byte, 4096); ; {
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
		t.Fatal("rank 1 read back wrong bytes")
	}
	st := s.Stats()
	if limit := h.LogicalSize()*5/4 + s.BlockBytes(); st.BackendBytes > limit {
		t.Fatalf("sequential 4 KiB reads of %d bytes moved %d backend bytes, want at most %d",
			h.LogicalSize(), st.BackendBytes, limit)
	}
	if st.Hits == 0 {
		t.Fatalf("no sequential read hit a whole block: %+v", st)
	}
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
	bs := a.BlockBytes()
	off := 3*bs + 5000

	readCheck(t, a, raw, off, 2000)
	readCheck(t, b, raw, off, 2000)
	if st := b.Stats(); st.BackendReads != 0 || st.PeerFills != 1 {
		t.Fatalf("peer fill of a partial range: %+v, want 1 peer fill and no backend read", st)
	}
	fs := make([]byte, 4096)
	if !a.Peek(0, 3, fs, 4096) || a.Peek(0, 3, fs, 0) || a.Peek(0, 3, fs, 8192) {
		t.Fatal("the peer does not hold exactly FS block 1 of block 3, [4096, 8192)")
	}
	readCheck(t, b, raw, 3*bs+12000, 2000) // outside the peer's range
	if st := b.Stats(); st.BackendReads != 1 || st.PeerFills != 1 {
		t.Fatalf("a window the peer does not hold: %+v, want it read from the backend", st)
	}
}
