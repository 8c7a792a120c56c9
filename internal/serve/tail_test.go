package serve

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

// TestServeCloseIdempotentSentinel pins the Close contract under -race:
// Close is idempotent, reads racing Close either succeed or fail with
// ErrServerClosed (never a torn internal state), and reads issued after
// Close always fail with ErrServerClosed.
func TestServeCloseIdempotentSentinel(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "c.sion", 4)
	s, err := New(fsys, "c.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, 4)
	for r := range handles {
		if handles[r], err = s.Open(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r, h := range handles {
		wg.Add(1)
		go func(r int, h *Handle) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 50; i++ {
				if _, err := h.ReadLogicalAt(buf, int64(i)%h.LogicalSize()); err != nil {
					if !errors.Is(err, ErrServerClosed) {
						t.Errorf("rank %d: read racing Close: %v", r, err)
					}
					return
				}
			}
		}(r, h)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v (want nil — Close must be idempotent)", err)
	}
	wg.Wait()
	buf := make([]byte, 16)
	if _, err := handles[0].ReadLogicalAt(buf, 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-Close read: %v, want ErrServerClosed", err)
	}
}

// TestServeTailLiveStream drives two writers flushing in lockstep while a
// tail server follows them: after every flush round the sessions must see
// exactly the committed prefix, hit ErrAgain at the watermark, and after
// the writers' Close drain to EOF with byte identity.
func TestServeTailLiveStream(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const ranks, steps, piece = 2, 4, 700
	payloads := make([][]byte, ranks)
	for r := range payloads {
		payloads[r] = testPayload(r, steps*piece)
	}
	stepDone := make(chan struct{})
	resume := make(chan struct{})
	go mpi.Run(ranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "t.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		for st := 0; st < steps; st++ {
			if _, err := f.Write(payloads[c.Rank()][st*piece : (st+1)*piece]); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			if err := f.Flush(); err != nil {
				t.Errorf("rank %d: Flush: %v", c.Rank(), err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				stepDone <- struct{}{}
				<-resume
			}
			c.Barrier()
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
		c.Barrier()
		if c.Rank() == 0 {
			stepDone <- struct{}{}
		}
	})

	<-stepDone // round 1 flushed
	s, err := NewTail(fsys, "t.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Open(0); err == nil {
		t.Fatal("Open on a tail server should fail")
	}
	sess := make([]*Session, ranks)
	got := make([][]byte, ranks)
	for r := range sess {
		if sess[r], err = s.Tail(r); err != nil {
			t.Fatal(err)
		}
	}
	readAvail := func(r int) {
		buf := make([]byte, 123) // deliberately unaligned with piece/block sizes
		for {
			n, err := sess[r].Read(buf)
			got[r] = append(got[r], buf[:n]...)
			if err == sion.ErrAgain || err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("rank %d: Read: %v", r, err)
			}
		}
	}
	for st := 0; st < steps; st++ {
		if st > 0 {
			<-stepDone
			if _, err := s.Poll(); err != nil {
				t.Fatalf("Poll after round %d: %v", st+1, err)
			}
		}
		committed := (st + 1) * piece
		for r := 0; r < ranks; r++ {
			readAvail(r)
			if len(got[r]) != committed {
				t.Fatalf("round %d rank %d: read %d bytes, committed %d", st+1, r, len(got[r]), committed)
			}
			if !bytes.Equal(got[r], payloads[r][:committed]) {
				t.Fatalf("round %d rank %d: bytes differ from committed prefix", st+1, r)
			}
			if n, err := sess[r].Read(make([]byte, 8)); n != 0 || err != sion.ErrAgain {
				t.Fatalf("round %d rank %d: at watermark got (%d, %v), want (0, ErrAgain)", st+1, r, n, err)
			}
		}
		resume <- struct{}{}
	}
	<-stepDone // writers closed
	if adv, err := s.Poll(); err != nil || !adv {
		t.Fatalf("Poll after close: (%v, %v), want finalization advance", adv, err)
	}
	for r := 0; r < ranks; r++ {
		if !sess[r].Finalized() {
			t.Fatalf("rank %d: not finalized after writer Close", r)
		}
		readAvail(r)
		if !bytes.Equal(got[r], payloads[r]) {
			t.Fatalf("rank %d: final bytes differ", r)
		}
		if n, err := sess[r].Read(make([]byte, 8)); n != 0 || err != io.EOF {
			t.Fatalf("rank %d: after drain got (%d, %v), want (0, EOF)", r, n, err)
		}
	}
}

// TestServeTailAlignedCommitKeepsCache pins the Poll invalidation rule: a
// block-aligned old frontier means the block below it was already
// complete, so advancing past it must NOT evict that block — a re-read
// after the commit stays a cache hit with no new backend read.
func TestServeTailAlignedCommitKeepsCache(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const bs = 256
	payload := testPayload(3, 4*bs)
	stepDone := make(chan struct{})
	resume := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		mpi.Run(1, func(c *mpi.Comm) {
			f, err := sion.ParOpen(c, fsys, "a.sion", sion.WriteMode, &sion.Options{
				ChunkSize: 1024, FSBlockSize: bs, Watermarks: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for st := 0; st < 2; st++ { // two exactly block-aligned commits
				if _, err := f.Write(payload[st*bs : (st+1)*bs]); err != nil {
					t.Errorf("step %d: %v", st, err)
				}
				if err := f.Flush(); err != nil {
					t.Errorf("step %d: Flush: %v", st, err)
				}
				stepDone <- struct{}{}
				<-resume
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
	}()
	defer func() { resume <- struct{}{}; <-writerDone }() // let the writer finish

	<-stepDone // first aligned block committed
	s, err := NewTail(fsys, "a.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, err := s.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	// Read the committed block: it lies wholly below the (aligned)
	// frontier, so it is served through the cache.
	buf := make([]byte, bs)
	if n, err := sess.Read(buf); n != bs || err != nil {
		t.Fatalf("first read: (%d, %v), want (%d, nil)", n, err, bs)
	}
	if !bytes.Equal(buf, payload[:bs]) {
		t.Fatal("first block differs")
	}
	st0 := s.Stats()
	if st0.Misses == 0 {
		t.Fatal("first read should have missed into the cache")
	}

	resume <- struct{}{}
	<-stepDone // second aligned block committed
	if adv, err := s.Poll(); err != nil || !adv {
		t.Fatalf("Poll: (%v, %v), want advance", adv, err)
	}
	// Re-read the first block through a fresh session: the aligned advance
	// must not have evicted it — no new miss, no new backend read, one
	// more hit.
	sess2, err := s.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sess2.Read(buf); n != bs || err != nil {
		t.Fatalf("re-read: (%d, %v), want (%d, nil)", n, err, bs)
	}
	if !bytes.Equal(buf, payload[:bs]) {
		t.Fatal("re-read block differs")
	}
	st1 := s.Stats()
	if st1.Misses != st0.Misses {
		t.Fatalf("aligned commit evicted the complete block: misses %d -> %d", st0.Misses, st1.Misses)
	}
	if st1.BackendReads != st0.BackendReads {
		t.Fatalf("aligned commit forced a refetch: backend reads %d -> %d", st0.BackendReads, st1.BackendReads)
	}
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("re-read was not a cache hit: hits %d -> %d", st0.Hits, st1.Hits)
	}
}

// TestServeTailForcesFSBlock: NewTail ignores cfg.BlockBytes and caches in
// FS blocks. On a live multifile a rank's committed bytes end inside its
// chunk while the next rank keeps appending to its own; a 64 KiB block here
// would span both ranks' 1 KiB chunks, so caching a block below rank 0's
// watermark would also cache rank 1's uncommitted bytes. Only FS blocks,
// to which chunks are aligned (paper §3.1), never straddle two ranks.
func TestServeTailForcesFSBlock(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const fsblk = 256
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "b.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: fsblk, Watermarks: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), 700)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	// The rule does not depend on liveness, so the finished multifile
	// (which NewTail also accepts) stands in for a live one.
	s, err := NewTail(fsys, "b.sion", &Config{CacheBytes: 1 << 20, BlockBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.BlockBytes(); got != fsblk {
		t.Fatalf("tail server caches %d-byte blocks, want the %d-byte FS block", got, fsblk)
	}
}

// TestServeTailFollowBlocksUntilData exercises Follow's poll loop: a
// reader blocked at the watermark resumes when the writer commits more.
func TestServeTailFollowBlocksUntilData(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payload := testPayload(7, 3000)
	wrote := make(chan int, 8) // committed byte counts, closed at the end
	go mpi.Run(1, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "f.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < len(payload); off += 1000 {
			end := off + 1000
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := f.Write(payload[off:end]); err != nil {
				t.Error(err)
			}
			if err := f.Flush(); err != nil {
				t.Error(err)
			}
			wrote <- end
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		close(wrote)
	})

	<-wrote // first kilobyte committed
	s, err := NewTail(fsys, "f.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, err := s.Tail(0)
	if err != nil {
		t.Fatal(err)
	}
	// wait drains the writer's progress channel; when it is exhausted the
	// writer has closed and the next Poll observes finalization.
	wait := func() bool {
		<-wrote
		return true
	}
	var got []byte
	buf := make([]byte, 256)
	for {
		n, err := sess.Follow(buf, wait)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Follow: %v", err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("followed stream differs: %d bytes, want %d", len(got), len(payload))
	}
}
