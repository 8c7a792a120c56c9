package serve

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fsio"
)

// vecFS counts the backend reads of its files and the vectors they
// carry, and fails every read that overlaps [failLo, failHi) after
// scribbling 0xEE over its buffers, as a read that dies half way may. Its
// files implement ReadvAt, so the server's spans reach it whole; it
// forwards them to the backend's own vectored read or its fallback.
type vecFS struct {
	fsio.FileSystem
	Reads, Vecs    atomic.Int64
	failLo, failHi int64 // set while no read is in flight
}

var errInjected = errors.New("vecFS: injected read failure") // permanent: no retry

func (v *vecFS) Open(name string) (fsio.File, error) {
	fh, err := v.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &vecFile{File: fh, fs: v}, nil
}

type vecFile struct {
	fsio.File
	fs *vecFS
}

func (f *vecFile) ReadAt(p []byte, off int64) (int, error) { return f.ReadvAt([][]byte{p}, off) }

func (f *vecFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	end := off
	for _, b := range bufs {
		end += int64(len(b))
	}
	f.fs.Reads.Add(1)
	f.fs.Vecs.Add(int64(len(bufs)))
	if off < f.fs.failHi && end > f.fs.failLo {
		for _, b := range bufs {
			for i := range b {
				b[i] = 0xEE
			}
		}
		return 0, errInjected
	}
	return fsio.ReadvAt(f.File, bufs, off)
}

// The bracketing geometry: one shard of four 256-byte blocks, FS block
// included, holding blocks 21, 22, 24 and 25, each asked for until its
// count saturates (LRU 22, 21, 25, 24 from the front), so that every
// block a window of an FS block or more touches first is read around the
// cache. A window over blocks 20-23 misses 20 and 23 and hits the two
// between them.
const bbs = 256

var bracketResident = []int64{24, 25, 21, 22}

func bracketServer(t *testing.T, fsys fsio.FileSystem, cfg Config) (*Server, []byte) {
	t.Helper()
	raw := writeOneFile(t, fsys, "b.sion", 8, 8<<10, bbs)
	cfg.CacheBytes, cfg.BlockBytes, cfg.Shards = 4*bbs, bbs, 1
	s, err := New(fsys, "b.sion", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, b := range bracketResident {
		if err := s.ReadFileAt(0, make([]byte, bbs), b*bbs, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.cache.shards[0].freq.init(4, ablation{})
	for i := 0; i < 15; i++ {
		for _, b := range bracketResident {
			if err := s.ReadFileAt(0, make([]byte, bbs), b*bbs, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.CachedBytes != 4*bbs || st.BackendReads != 4 || st.Hits != 60 {
		t.Fatalf("the resident blocks did not settle: %+v", st)
	}
	return s, raw
}

// pinsHeld counts the pins on every slot of s's cache: resident, pending
// or free.
func pinsHeld(s *Server) int32 {
	var n int32
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		for _, e := range sh.items {
			n += e.readers.Load()
		}
		for e := sh.free; e != nil; e = e.next {
			n += e.readers.Load()
		}
		sh.mu.Unlock()
	}
	return n
}

// statsSince is what s counted since before; CachedBytes is a level and
// reads as is.
func statsSince(s *Server, before Stats) Stats {
	st := s.Stats()
	return Stats{
		Hits: st.Hits - before.Hits, Misses: st.Misses - before.Misses, FlightHits: st.FlightHits - before.FlightHits,
		BackendReads: st.BackendReads - before.BackendReads, BackendBytes: st.BackendBytes - before.BackendBytes,
		ServedBytes: st.ServedBytes - before.ServedBytes, Evictions: st.Evictions - before.Evictions,
		ReadAround: st.ReadAround - before.ReadAround, CachedBytes: st.CachedBytes,
		PeerFills: st.PeerFills - before.PeerFills, Retries: st.Retries - before.Retries,
		GiveUps: st.GiveUps - before.GiveUps, Degraded: st.Degraded - before.Degraded,
	}
}

// TestBridgedBlocksReadIntoTheWindow pins how a window whose missed blocks
// bracket resident ones is served: the cache pass pins the resident blocks
// instead of copying them, and a span that bridges them reads them into
// the caller's buffer along with the missed ones, so a span of blocks read
// around the cache and bridged ones is one backend read of one vector.
// A pinned block no successful span read — a trailing hit, one beyond a
// gap wider than MaxSpanGap, one before a round cut by another reader's
// pending block, one inside a failed span — is copied from its frame. In
// every case the window holds the file's bytes (a frame recycled under
// the pin would show another block's bytes, and poison in race builds),
// every pin is released, and the counters are what copying every hit out
// in the cache pass counted: the backend reads and every cache decision
// stay as they were.
func TestBridgedBlocksReadIntoTheWindow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		first, n int64 // the window, in bytes from block `first`
		fail     bool  // the span over blocks 20-23 fails
		reads    int64 // backend reads, of one vector each
		want     Stats
	}{
		{name: "bridged", first: 20, n: 4 * bbs, reads: 1,
			want: Stats{Hits: 2, Misses: 2, BackendReads: 1, BackendBytes: 4 * bbs, ServedBytes: 4 * bbs, ReadAround: 2, CachedBytes: 4 * bbs}},
		{name: "trailing-hit", first: 20, n: 5*bbs + 100, reads: 1,
			want: Stats{Hits: 4, Misses: 2, BackendReads: 1, BackendBytes: 4 * bbs, ServedBytes: 5*bbs + 100, ReadAround: 2, CachedBytes: 4 * bbs}},
		{name: "wide-gap", cfg: Config{MaxSpanGap: bbs}, first: 20, n: 4 * bbs, reads: 2,
			want: Stats{Hits: 2, Misses: 2, BackendReads: 2, BackendBytes: 2 * bbs, ServedBytes: 4 * bbs, ReadAround: 2, CachedBytes: 4 * bbs}},
		{name: "failed-span", first: 20, n: 4 * bbs, fail: true, reads: 1,
			want: Stats{Hits: 2, Misses: 2, BackendReads: 1, BackendBytes: 4 * bbs, ReadAround: 2, CachedBytes: 4 * bbs}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vfs := &vecFS{FileSystem: fsio.NewOS(t.TempDir())}
			s, raw := bracketServer(t, vfs, tc.cfg)
			if tc.fail {
				vfs.failLo, vfs.failHi = 20*bbs, 24*bbs
			}
			before, reads, vecs := s.Stats(), vfs.Reads.Load(), vfs.Vecs.Load()
			off := tc.first * bbs
			p := bytes.Repeat([]byte{0xAA}, int(tc.n))
			err := s.ReadFileAt(0, p, off, nil)
			switch {
			case tc.fail && !errors.Is(err, errInjected):
				t.Fatalf("a read over a failing span: %v, want the span's error", err)
			case tc.fail: // the request failed, but its hits were still copied from their frames
				if !bytes.Equal(p[bbs:3*bbs], raw[21*bbs:23*bbs]) {
					t.Error("the hits inside the failed span differ from the file")
				}
			case err != nil:
				t.Fatal(err)
			case !bytes.Equal(p, raw[off:off+tc.n]):
				t.Error("the window differs from the file")
			}
			if r, v := vfs.Reads.Load()-reads, vfs.Vecs.Load()-vecs; r != tc.reads || v != tc.reads {
				t.Errorf("%d backend reads carried %d vectors, want %d of one vector each", r, v, tc.reads)
			}
			if got := statsSince(s, before); got != tc.want {
				t.Errorf("counted\n%+v\nwant\n%+v", got, tc.want)
			}
			if n := pinsHeld(s); n != 0 {
				t.Errorf("%d pins left on the cache's frames", n)
			}
		})
	}

	// A round cut by another reader's pending block: the window's span
	// ends before block 23, which another reader is filling, and while the
	// window waits for it the slots of the pinned blocks 21 and 22 are
	// evicted and reserved again for other blocks.
	t.Run("round-cut", func(t *testing.T) {
		gfs := newGatedFS(fsio.NewOS(t.TempDir()))
		vfs := &vecFS{FileSystem: gfs}
		s, raw := bracketServer(t, vfs, Config{})
		defer gfs.openAll()
		gfs.gate.open()
		gfs.at = map[int64]*gate{23 * bbs: newGate()}
		gfs.armed.Store(true)
		before, reads, vecs := s.Stats(), vfs.Reads.Load(), vfs.Vecs.Load()

		filler := make(chan error, 1)
		go func() { filler <- s.ReadFileAt(0, make([]byte, 100), 23*bbs, nil) }() // smaller than an FS block: admitted, pending
		waitFor(t, "the filler of block 23 to reach the backend", func() bool { return gfs.held.Load() == 1 })
		p := bytes.Repeat([]byte{0xAA}, 4*bbs)
		window := make(chan error, 1)
		go func() { window <- s.ReadFileAt(0, p, 20*bbs, nil) }()
		waitFor(t, "the window's span of block 20", func() bool { return vfs.Reads.Load() == reads+2 })
		for _, b := range []int64{30, 31, 32} { // evicts 25, 21 and 22 and reserves their slots again
			if err := s.ReadFileAt(0, make([]byte, 100), b*bbs, nil); err != nil {
				t.Fatal(err)
			}
		}
		gfs.at[23*bbs].open()
		if err := <-filler; err != nil {
			t.Fatal(err)
		}
		if err := <-window; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, raw[20*bbs:24*bbs]) {
			for b := int64(0); b < 4; b++ {
				if !bytes.Equal(p[b*bbs:(b+1)*bbs], raw[(20+b)*bbs:(21+b)*bbs]) {
					t.Errorf("block %d of the window differs from the file", 20+b)
				}
			}
		}
		if r, v := vfs.Reads.Load()-reads, vfs.Vecs.Load()-vecs; r != 5 || v != 5 {
			t.Errorf("%d backend reads carried %d vectors, want 5 of one vector each", r, v)
		}
		want := Stats{Hits: 2, Misses: 6, FlightHits: 1, BackendReads: 5, BackendBytes: 5 * bbs, ServedBytes: 4*bbs + 400,
			Evictions: 4, ReadAround: 1, CachedBytes: 4 * bbs}
		if got := statsSince(s, before); got != want {
			t.Errorf("counted\n%+v\nwant\n%+v", got, want)
		}
		if n := pinsHeld(s); n != 0 {
			t.Errorf("%d pins left on the cache's frames", n)
		}
	})
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
