package serve

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
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
// server follows them: after every flush round the handles, opened
// once, must see exactly the committed prefix, hit ErrAgain at the
// watermark, and after the writers' Close drain to EOF with byte identity.
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
	s, err := New(fsys, "t.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := make([]*Handle, ranks)
	got := make([][]byte, ranks)
	for r := range sess {
		if sess[r], err = s.Open(r); err != nil {
			t.Fatalf("Open(%d) on a live server: %v", r, err)
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
	if !s.Layout().Final() {
		t.Fatal("snapshot not final after writer Close")
	}
	for r := 0; r < ranks; r++ {
		readAvail(r)
		if !bytes.Equal(got[r], payloads[r]) {
			t.Fatalf("rank %d: final bytes differ", r)
		}
		if n, err := sess[r].Read(make([]byte, 8)); n != 0 || err != io.EOF {
			t.Fatalf("rank %d: after drain got (%d, %v), want (0, EOF)", r, n, err)
		}
	}
}

// TestServeTailAlignedCommitKeepsCache: a block-aligned old frontier means
// the block below it was already complete, so advancing past it must not
// evict that block — a re-read after the commit stays a cache hit with no
// new backend read.
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
	s, err := New(fsys, "a.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, err := s.Open(0)
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
	// Re-read the first block through a fresh handle: the aligned advance
	// must not have evicted it — no new miss, no new backend read, one
	// more hit.
	sess2, err := s.Open(0)
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

// TestServeTailForcesFSBlock: New ignores cfg.BlockBytes on a watermarked
// multifile and caches in FS blocks. On a live multifile a rank's committed bytes end inside its
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
	// (to which the same rule applies) stands in for a live one.
	s, err := New(fsys, "b.sion", &Config{CacheBytes: 1 << 20, BlockBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.BlockBytes(); got != fsblk {
		t.Fatalf("tail server caches %d-byte blocks, want the %d-byte FS block", got, fsblk)
	}
}

// TestServeClosedPollIsNoop: a closed multifile written without watermarks
// loads final and keeps the default cache block. Poll on its server has
// nothing to refresh: it returns (false, nil), before and after Close, and
// counts no poll.
func TestServeClosedPollIsNoop(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "c.sion", 4)
	s, err := New(fsys, "c.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Layout().Final() {
		t.Fatal("closed multifile loaded live")
	}
	if got, want := s.BlockBytes(), resolveConfig(nil, 256, fsio.Capabilities{}).BlockBytes; got != want {
		t.Fatalf("cache block %d, want the default %d", got, want)
	}
	h, err := s.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payloads[3])+1)
	if n, err := h.ReadLogicalAt(got, 0); n != len(payloads[3]) || err != io.EOF || !bytes.Equal(got[:n], payloads[3]) {
		t.Fatalf("rank 3: read (%d, %v), want its %d bytes and io.EOF", n, err, len(payloads[3]))
	}
	poll := func(when string) {
		t.Helper()
		if adv, err := s.Poll(); adv || err != nil {
			t.Fatalf("Poll on a %s server: (%v, %v), want (false, nil)", when, adv, err)
		}
		if n := s.Stats().TailPolls; n != 0 {
			t.Fatalf("Poll on a %s server counted %d polls, want 0", when, n)
		}
	}
	poll("open")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	poll("closed")
}

// TestServeLivePollErrors: a live server's Poll surfaces a sidecar that
// no longer parses, and after Close returns ErrServerClosed.
func TestServeLivePollErrors(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "l.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
		})
		if err == nil {
			_, err = f.Write(testPayload(c.Rank(), 300))
		}
		if err == nil {
			err = f.Flush() // committed; the writer stops before Close
		}
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	s, err := New(fsys, "l.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout().Final() {
		t.Fatal("an unclosed multifile loaded final")
	}
	if err := os.WriteFile(filepath.Join(dir, "l.sion.wmk"), []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Poll(); !errors.Is(err, sion.ErrCorrupt) {
		t.Fatalf("Poll over a damaged sidecar: %v, want ErrCorrupt", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Poll(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Poll after Close: %v, want ErrServerClosed", err)
	}
}

// TestServeTailFollowBlocksUntilData: a reader that stops at the watermark
// with ErrAgain resumes from the same handle once the writer has committed
// more and a Poll has published it, and ends in io.EOF at the final
// snapshot with every byte the writer's.
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
	s, err := New(fsys, "f.sion", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 256)
	for {
		n, err := h.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if errors.Is(err, sion.ErrAgain) {
			// Wait for the writer's next commit; once its progress channel
			// is exhausted it has closed, and this Poll observes that.
			<-wrote
			_, err = s.Poll()
		}
		if err != nil {
			t.Fatalf("follow: %v", err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("followed stream differs: %d bytes, want %d", len(got), len(payload))
	}
}

// TestServeLiveRace: writers commit through watermarks while followers read
// TestServeLiveRace: writers commit through watermarks while followers read
// each rank's stream on the newest snapshot, readers read random windows on
// older snapshots they hold, and Polls publish. Every byte must be the
// writer's. And the frontier block is cached up to its committed end: once
// a newer snapshot has moved the frontier on within the same block, a
// re-read of the bytes committed before is at least once a cache hit with
// no backend read. (Were frontier blocks read around the cache, no snapshot
// would yet have let that block in.)
func TestServeLiveRace(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const ranks, pieces, piece, fsblk = 2, 64, 60, 256
	payloads := make([][]byte, ranks)
	for r := range payloads {
		payloads[r] = testPayload(10+r, pieces*piece)
	}
	firstCommit := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		mpi.Run(ranks, func(c *mpi.Comm) {
			f, err := sion.ParOpen(c, fsys, "live.sion", sion.WriteMode, &sion.Options{
				ChunkSize: 1024, FSBlockSize: fsblk, Watermarks: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < pieces; i++ {
				if _, err := f.Write(payloads[c.Rank()][i*piece : (i+1)*piece]); err != nil {
					t.Error(err)
				}
				if err := f.Flush(); err != nil {
					t.Error(err)
				}
				c.Barrier()
				if i == 0 && c.Rank() == 0 {
					close(firstCommit)
				}
				time.Sleep(300 * time.Microsecond)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
	}()
	<-firstCommit
	s, err := New(fsys, "live.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	final := func() bool { return s.Layout().Final() }
	check := func(what string, r int, got []byte, off int64) {
		if !bytes.Equal(got, payloads[r][off:off+int64(len(got))]) {
			t.Errorf("%s: rank %d: %d bytes at %d differ from the writer's", what, r, len(got), off)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(2)
		go func(r int) { // follower on the newest snapshot, polling
			defer wg.Done()
			h, err := s.Open(r)
			if err != nil {
				t.Error(err)
				return
			}
			var got []byte
			buf := make([]byte, 77)
			for {
				n, err := h.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if errors.Is(err, sion.ErrAgain) { // at the frontier: wait, then poll
					time.Sleep(100 * time.Microsecond)
					_, err = s.Poll()
				}
				if err != nil {
					t.Errorf("rank %d: follow: %v", r, err)
					return
				}
			}
			check("follower", r, got, 0)
			if len(got) != len(payloads[r]) {
				t.Errorf("rank %d: followed %d bytes, want %d", r, len(got), len(payloads[r]))
			}
		}(r)
		go func(r int) { // random windows on a snapshot held across Polls
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !final() {
				l := s.Layout()
				h, err := NewHandle(l, r, s)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 16 && l.RankSize(r) > 0; i++ {
					off := rng.Int63n(l.RankSize(r))
					buf := make([]byte, min(1+rng.Int63n(300), l.RankSize(r)-off))
					if n, err := h.ReadLogicalAt(buf, off); err != nil || n != len(buf) {
						t.Errorf("rank %d: committed window [%d, +%d) on an old snapshot: (%d, %v)", r, off, len(buf), n, err)
						return
					}
					check("old snapshot", r, buf, off)
				}
			}
		}(r)
	}
	// Rank 0's frontier block: read its committed bytes on one snapshot,
	// re-read them once a newer one is out.
	hits, inBlock := 0, 0
	for !final() {
		l := s.Layout()
		end := l.RankSize(0)
		k := end % fsblk
		if k == 0 {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		old, err := NewHandle(l, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, k)
		if _, err := old.ReadLogicalAt(buf, end-k); err != nil {
			t.Fatalf("frontier bytes [%d, %d): %v", end-k, end, err)
		}
		check("frontier", 0, buf, end-k)
		next := end
		for next == end && !final() {
			time.Sleep(50 * time.Microsecond)
			next = s.Layout().RankSize(0)
		}
		h, err := s.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		sp := obs.NewSpan("")
		h.SetSpan(sp)
		if _, err := h.ReadLogicalAt(buf, end-k); err != nil {
			t.Fatalf("re-read of [%d, %d): %v", end-k, end, err)
		}
		check("re-read", 0, buf, end-k)
		if next < end-k+fsblk { // the frontier is still in this block
			inBlock++
			if sp.Get(obs.CrumbCacheHit) > 0 && sp.Get(obs.CrumbBackendRead) == 0 {
				hits++
			}
		}
	}
	<-writerDone
	wg.Wait()
	t.Logf("%d of %d re-reads behind a frontier in the same block hit", hits, inBlock)
	if hits == 0 {
		t.Fatalf("none of %d re-reads behind a frontier in the same block was a cache hit without a backend read", inBlock)
	}
}

// TestServeTailRawReadPastFrontier: a raw ReadFileAt window that runs past
// a live frontier gets the bytes on disk, read around the cache — no frame
// is filled past the committed end, so none serves stale bytes there —
// and a Handle that reads after the next commit sees the writer's bytes.
func TestServeTailRawReadPastFrontier(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payload := testPayload(4, 300)
	wrote, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		mpi.Run(1, func(c *mpi.Comm) {
			f, err := sion.ParOpen(c, fsys, "p.sion", sion.WriteMode, &sion.Options{
				ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
			})
			if err != nil {
				t.Error(err)
				close(wrote)
				return
			}
			f.Write(payload[:100])
			f.Flush()                 // commits 100 bytes
			f.Write(payload[100:200]) // on disk, not committed
			wrote <- struct{}{}
			<-resume
			f.Write(payload[200:])
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
	}()
	<-wrote
	s, err := New(fsys, "p.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ext := s.Layout().RankBlocks(0)
	if len(ext) != 1 || ext[0].Bytes != 100 {
		t.Fatalf("committed extents %v, want one of 100 bytes", ext)
	}
	raw := make([]byte, 200)
	if err := s.ReadFileAt(ext[0].File, raw, ext[0].Off, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, payload[:200]) {
		t.Fatal("a raw read past the frontier did not return the bytes on disk")
	}
	resume <- struct{}{}
	<-done
	if _, err := s.Poll(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if n, err := h.ReadLogicalAt(got, 0); n != len(payload) || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after the writer's Close: (%d, %v), bytes equal %v", n, err, bytes.Equal(got, payload))
	}
}
