package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simfs"
)

// writeOneFile writes an nranks × perRank multifile into a single physical
// file with the given FS block size and returns that file's bytes, read
// around any server — the reference every test here compares against.
func writeOneFile(t testing.TB, fsys fsio.FileSystem, name string, nranks, perRank int, fsblk int64) []byte {
	t.Helper()
	mpi.Run(nranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{
			ChunkSize: int64(perRank), FSBlockSize: fsblk, NFiles: 1,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), perRank)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	fi, err := fsys.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	raw := make([]byte, fi.Size)
	if _, err := fh.ReadAt(raw, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return raw
}

// wantWindow is [off, off+n) of raw, zero-filled past its end.
func wantWindow(raw []byte, off, n int64) []byte {
	want := make([]byte, n)
	if off < int64(len(raw)) {
		copy(want, raw[off:])
	}
	return want
}

// TestMissPathAllocations pins what a read costs the allocator once the
// cache is full: a cold read — into recycled frames, a window smaller than
// an FS block, or around the cache, a larger one the shard has not been
// asked for often — with pooled bookkeeping touches the heap not at all,
// however many blocks it misses (the fetcher goroutine took 78 allocations
// for 64 KiB; a miss list on the stack spilled past 32 blocks), and
// neither does a warm one. The FS block is 16 KiB, so the 8 KiB window is
// the small one and the cache block is two FS blocks.
func TestMissPathAllocations(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const fsblk = 16 << 10
	raw := writeOneFile(t, fsys, "a.sion", 8, 1<<20, fsblk)
	for _, win := range []int64{8 << 10, 64 << 10, 1 << 20} { // 1 MiB at an odd offset: 33 blocks of 32 KiB
		t.Run(fmt.Sprint(win>>10, "KiB"), func(t *testing.T) {
			span := int64(len(raw)) - win
			p := make([]byte, win)
			cold, err := New(fsys, "a.sion", &Config{CacheBytes: 2 << 20}) // a quarter of the file
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			if _, ok := cold.files[0].(fsio.VectorReaderAt); !ok && runtime.GOOS == "linux" {
				t.Fatal("fsio.OS files have no vectored read: this would measure the copying fallback")
			}
			const stride = 1<<20 + 80<<10
			i := int64(0)
			next := func() { // walks the whole file, so LRU has dropped a window before it comes round again
				if err := cold.ReadFileAt(0, p, (i*stride+1000)%span, nil); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for i < 256 { // fill the cache, the frequency sketches and the pool
				next()
			}
			before := cold.Stats()
			// The pooled scratch is what makes this 0: under the race detector
			// sync.Pool drops Puts, so only the reads are checked there.
			if got := testing.AllocsPerRun(100, next); got != 0 && !raceEnabled {
				t.Errorf("a cold %d KiB read with a full cache makes %v allocations, want 0", win>>10, got)
			}
			st := cold.Stats()
			if st.BackendReads-before.BackendReads < 50 || st.Evictions+st.ReadAround == before.Evictions+before.ReadAround {
				t.Fatalf("the measured reads were not cold: %+v -> %+v", before, st)
			}
			if (st.ReadAround > before.ReadAround) != (win >= fsblk) {
				t.Fatalf("a %d-byte window read %d blocks around the cache", win, st.ReadAround-before.ReadAround)
			}
			if !bytes.Equal(p, wantWindow(raw, ((i-1)*stride+1000)%span, win)) {
				t.Fatal("cold read returned the wrong bytes")
			}
		})
	}

	p := make([]byte, 64<<10)
	warm, err := New(fsys, "a.sion", &Config{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	hit := func() {
		if err := warm.ReadFileAt(0, p, 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	before := warm.Stats()
	if got := testing.AllocsPerRun(100, hit); got != 0 {
		t.Errorf("a warm 64 KiB read makes %v allocations, want 0", got)
	}
	if st := warm.Stats(); st.BackendReads != before.BackendReads {
		t.Fatalf("the measured reads were not warm: %+v -> %+v", before, st)
	}
}

// readAtOnlyFS hides the backend's vectored read: its files have ReadAt
// only, so the miss path takes fsio.ReadvAt's copying fallback.
type readAtOnlyFS struct{ fsio.FileSystem }

func (r readAtOnlyFS) Open(name string) (fsio.File, error) {
	fh, err := r.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ fsio.File }{fh}, nil
}

// missPaths are the two ways a span reaches its frames: read straight into
// them (fsio.OS, preadv on Linux), or read into a staging buffer and copied
// (a backend without a vectored read). The race detector sees only the
// second path's writes into frames; the kernel's are invisible to it.
var missPaths = []struct {
	name string
	wrap func(fsio.FileSystem) fsio.FileSystem
}{
	{"vectored", func(fsys fsio.FileSystem) fsio.FileSystem { return fsys }},
	{"readat", func(fsys fsio.FileSystem) fsio.FileSystem { return readAtOnlyFS{fsys} }},
}

// TestRecycledFramesNeverShow hammers a cache of two blocks per shard —
// every reservation recycles a frame some reader may just have been copying
// from — with overlapping windows from eight goroutines, on both miss
// paths: every byte delivered must be the file's.
func TestRecycledFramesNeverShow(t *testing.T) {
	for _, mp := range missPaths {
		t.Run(mp.name, func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			raw := writeOneFile(t, fsys, "r.sion", 8, 8<<10, 256)
			s, err := New(mp.wrap(fsys), "r.sion", &Config{CacheBytes: 4 * 2 * 256, BlockBytes: 256, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const region = 16 << 10 // small enough that the goroutines keep colliding
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 2000; i++ {
						off, n := 4096+rng.Int63n(region), 1+rng.Int63n(3000)
						p := bytes.Repeat([]byte{0xAA}, int(n))
						if err := s.ReadFileAt(0, p, off, nil); err != nil {
							t.Errorf("reader %d: %v", g, err)
							return
						}
						if !bytes.Equal(p, wantWindow(raw, off, n)) {
							t.Errorf("reader %d: %d bytes at %d differ from the file", g, n, off)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if st := s.Stats(); st.Evictions == 0 || st.Hits == 0 {
				t.Fatalf("no frame was recycled under the readers: %+v", st)
			}
		})
	}
}

// TestRecycledFramesReadZeroPastEOF: a reserved frame is recycled memory
// holding an earlier block's bytes; a read straddling the physical file's
// end must still deliver zeros past EOF, not those bytes, on both miss
// paths. The read at EOF is smaller than an FS block, which a full cache
// always admits: a larger one may be read around it, into no frame at all.
func TestRecycledFramesReadZeroPastEOF(t *testing.T) {
	for _, mp := range missPaths {
		t.Run(mp.name, func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			raw := writeOneFile(t, fsys, "z.sion", 4, 8<<10, 256)
			size := int64(len(raw))
			s, err := New(mp.wrap(fsys), "z.sion", &Config{CacheBytes: 2 << 10, BlockBytes: 256}) // holds neither read
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for round := 0; round < 8; round++ {
				long := make([]byte, 16<<10)
				if err := s.ReadFileAt(0, long, 512, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(long, wantWindow(raw, 512, int64(len(long)))) {
					t.Fatal("long read differs from the file")
				}
				off, n := size-100, int64(200)
				p := bytes.Repeat([]byte{0xAA}, int(n))
				if err := s.ReadFileAt(0, p, off, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p, wantWindow(raw, off, n)) {
					t.Fatalf("round %d: read across EOF differs (past-EOF bytes must be zero)", round)
				}
			}
			if st := s.Stats(); st.Evictions == 0 {
				t.Fatalf("no frame was recycled: %+v", st)
			}
		})
	}
}

// TestSpanRuleMatchesCoalesceExtents pins the miss path's allocation-free
// span rule (spanEnd) against the primitive it restates: for random block
// sets and gaps both cut the same dense spans.
func TestSpanRuleMatchesCoalesceExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		bs := int64(1) << (6 + rng.Intn(8))
		gap := []int64{0, bs - 1, bs, 3 * bs, 1 << 20}[rng.Intn(5)]
		var blocks []int64
		var exts []sion.Extent
		for b := int64(rng.Intn(4)); len(blocks) < 1+rng.Intn(40); b += 1 + int64(rng.Intn(6)) {
			blocks = append(blocks, b)
			exts = append(exts, sion.Extent{Off: b * bs, Len: bs})
		}
		i := 0
		for _, sp := range sion.CoalesceExtents(exts, gap) {
			j := spanEnd(blocks, i, bs, gap)
			if blocks[i]*bs != sp.Off || (blocks[j-1]+1)*bs != sp.End || j-i != len(sp.Extents) {
				t.Fatalf("bs %d gap %d blocks %v: span from block %d ends at index %d, CoalesceExtents says [%d, %d) with %d blocks",
					bs, gap, blocks, blocks[i], j, sp.Off, sp.End, len(sp.Extents))
			}
			i = j
		}
		if i != len(blocks) {
			t.Fatalf("bs %d gap %d blocks %v: spanEnd left blocks after CoalesceExtents' last span", bs, gap, blocks)
		}
	}
}

// gatedFS parks every ReadAt issued while it is armed until the gate
// opens — or, at an offset listed in at, until that offset's gate opens —
// and counts them; closedEarly records a file Close that lands while one
// of them has not returned.
type gatedFS struct {
	fsio.FileSystem
	armed       atomic.Bool
	reads, held atomic.Int64
	closedEarly atomic.Bool
	gate        *gate
	at          map[int64]*gate // set before arming
}

func newGatedFS(inner fsio.FileSystem) *gatedFS {
	return &gatedFS{FileSystem: inner, gate: newGate()}
}

// openAll opens every gate. A test that parks readers defers it after
// `defer s.Close()`, so that on a failure the readers return before Close
// waits for the close guards they hold: the test fails instead of hanging.
func (g *gatedFS) openAll() {
	g.gate.open()
	for _, x := range g.at {
		x.open()
	}
}

// gate holds readers until it opens, once.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

func (g *gatedFS) Open(name string) (fsio.File, error) {
	fh, err := g.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: fh, fs: g}, nil
}

type gatedFile struct {
	fsio.File
	fs *gatedFS
}

func (f *gatedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.Load() {
		f.fs.reads.Add(1)
		f.fs.held.Add(1)
		defer f.fs.held.Add(-1)
		g, ok := f.fs.at[off]
		if !ok {
			g = f.fs.gate
		}
		<-g.ch
	}
	return f.File.ReadAt(p, off)
}

func (f *gatedFile) Close() error {
	if f.fs.held.Load() > 0 {
		f.fs.closedEarly.Store(true)
	}
	return f.File.Close()
}

// TestSingleflightOneBackendRead: sixteen readers released together onto
// the same cold window cause one backend read between them — the first
// claims the blocks, the others wait on its flight and find them resident.
func TestSingleflightOneBackendRead(t *testing.T) {
	gfs := newGatedFS(fsio.NewOS(t.TempDir()))
	raw := writeOneFile(t, gfs, "f.sion", 8, 64<<10, 4096)
	s, err := New(gfs, "f.sion", &Config{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer gfs.openAll()
	const readers, win = 16, 64 << 10
	off, blocks := blockOff(s, 4), int64(win)/s.BlockBytes()
	gfs.armed.Store(true)

	var start, wg sync.WaitGroup
	start.Add(1)
	got := make([][]byte, readers)
	errs := make([]error, readers)
	for g := range got {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]byte, win)
			start.Wait()
			errs[g] = s.ReadFileAt(0, got[g], off, nil)
		}()
	}
	start.Done()
	// Hold the one backend read until every reader has looked and missed.
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Misses < readers*blocks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readers never all missed: %+v", s.Stats())
		}
	}
	gfs.gate.open()
	wg.Wait()

	want := wantWindow(raw, off, win)
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if !bytes.Equal(got[g], want) {
			t.Fatalf("reader %d: bytes differ from the file", g)
		}
	}
	st := s.Stats()
	if st.BackendReads != 1 || gfs.reads.Load() != 1 {
		t.Fatalf("%d readers of one cold window caused %d backend reads (%d reached the backend), want 1",
			readers, st.BackendReads, gfs.reads.Load())
	}
	if st.FlightHits != (readers-1)*blocks || st.Hits != 0 {
		t.Fatalf("FlightHits = %d, Hits = %d, want %d and 0: every reader but the fetching one finds all %d blocks resident after its wait, which is no cache hit",
			st.FlightHits, st.Hits, (readers-1)*blocks, blocks)
	}
}

// releaseReaders starts one goroutine per window of physical file 0 with
// every backend read of gfs held until all of them have missed each of
// their blocks, then returns what each read delivered and its error. A
// failure opens the gate on its way out, before the caller's deferred
// Close can wait for the parked readers.
func releaseReaders(t *testing.T, s *Server, gfs *gatedFS, offs []int64, win int64) ([][]byte, []error) {
	t.Helper()
	defer gfs.openAll()
	gfs.armed.Store(true)
	var start, wg sync.WaitGroup
	start.Add(1)
	got, errs := make([][]byte, len(offs)), make([]error, len(offs))
	for g := range offs {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]byte, win)
			start.Wait()
			errs[g] = s.ReadFileAt(0, got[g], offs[g], nil)
		}()
	}
	start.Done()
	want := int64(len(offs)) * win / s.BlockBytes()
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Misses < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readers never all missed: %+v", s.Stats())
		}
	}
	gfs.gate.open()
	wg.Wait()
	return got, errs
}

// TestSingleflightOverlappingWindows: sixteen readers of windows shifted
// by one block, released together onto a cold file, read every block of
// their union from the backend exactly once — each reserves blocks up to
// the first one another reader is filling and waits for it holding
// nothing — and no goroutine outlives Close.
func TestSingleflightOverlappingWindows(t *testing.T) {
	base := runtime.NumGoroutine()
	gfs := newGatedFS(fsio.NewOS(t.TempDir()))
	raw := writeOneFile(t, gfs, "o.sion", 8, 64<<10, 4096)
	s, err := New(gfs, "o.sion", &Config{CacheBytes: 4 << 20, MaxSpanGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	const readers, blocks = 16, 4
	bs := s.BlockBytes()
	offs := make([]int64, readers)
	for g := range offs {
		offs[g] = blockOff(s, 8+int64(g))
	}
	got, errs := releaseReaders(t, s, gfs, offs, blocks*bs)
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if !bytes.Equal(got[g], wantWindow(raw, offs[g], blocks*bs)) {
			t.Fatalf("reader %d: bytes differ from the file", g)
		}
	}
	st := s.Stats()
	if union := (readers + blocks - 1) * bs; st.BackendBytes != union {
		t.Fatalf("readers of a %d-byte union moved %d backend bytes in %d reads: a block was read twice",
			union, st.BackendBytes, st.BackendReads)
	}
	if st.FlightHits == 0 {
		t.Fatalf("no reader waited for another's block: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestSingleflightWaiterOutlivesFailedOwner: readers parked on a block
// whose filler's span fails transiently are not handed the failure; the
// aborted entries send one of them to the backend itself, and every
// reader gets the file's bytes or its own typed error.
func TestSingleflightWaiterOutlivesFailedOwner(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	raw := writeOneFile(t, inner, "w.sion", 8, 64<<10, 4096)
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: 5})
	gfs := newGatedFS(fl.Wrap(inner, nil))
	s, err := New(gfs, "w.sion", &Config{CacheBytes: 4 << 20, Retry: &resil.Budget{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	name := s.physNames[0]
	fired := false // the first span read fails, the next succeeds
	fl.SetRule(func(op fsio.Op) error {
		if op.Name != name || fired {
			return nil
		}
		fired = true
		return fmt.Errorf("%s: injected: %w", name, fsio.ErrTransient)
	})

	const readers, win = 8, 64 << 10
	offs := make([]int64, readers)
	for g := range offs {
		offs[g] = 128 << 10
	}
	got, errs := releaseReaders(t, s, gfs, offs, win)
	failed := 0
	for g := range got {
		switch {
		case errs[g] == nil:
			if !bytes.Equal(got[g], wantWindow(raw, offs[g], win)) {
				t.Fatalf("reader %d: bytes differ from the file", g)
			}
		case errors.Is(errs[g], fsio.ErrTransient):
			failed++
		default:
			t.Fatalf("reader %d: untyped error %v", g, errs[g])
		}
	}
	// The failed span covered the whole window; the waiters' re-reads cover
	// each block once more, in one span or several as the aborts land.
	if st := s.Stats(); failed != 1 || st.BackendBytes != 2*win {
		t.Fatalf("%d readers failed and the backend moved %d bytes, want the owner alone to fail and the window read once more: %+v",
			failed, st.BackendBytes, st)
	}
}

// TestCloseWaitsForBackendReads pins the Close contract a resident hit no
// longer takes a lock for: a Close racing two held backend reads, whose
// windows start in different shards and so hold different close guards,
// returns and closes no physical file before both reads return — also
// after the one whose guard Close takes first is released — each read
// gets its bytes or ErrServerClosed (never a closed-file error), and after
// Close a read whose every block is resident fails with ErrServerClosed.
func TestCloseWaitsForBackendReads(t *testing.T) {
	gfs := newGatedFS(fsio.NewOS(t.TempDir()))
	raw := writeOneFile(t, gfs, "c.sion", 8, 64<<10, 4096)
	s, err := New(gfs, "c.sion", &Config{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() // idempotent: the test's own Close is the one that races the reads
	const resident, win = 0, 4096
	p := make([]byte, win)
	if err := s.ReadFileAt(0, p, resident, nil); err != nil {
		t.Fatal(err)
	}
	// Two cold windows whose first blocks fall in different shards, the
	// one in the lower shard first: Close takes the guards in shard order.
	shard := func(off int64) int { return s.cache.shardIndex(blockKey{0, off / s.BlockBytes()}) }
	cold := []int64{256 << 10, 256 << 10}
	for shard(cold[1]) == shard(cold[0]) {
		cold[1] += s.BlockBytes()
	}
	if shard(cold[1]) < shard(cold[0]) {
		cold[0], cold[1] = cold[1], cold[0]
	}
	gfs.at = map[int64]*gate{cold[0]: newGate(), cold[1]: newGate()}
	defer gfs.openAll()

	gfs.armed.Store(true)
	got, read := [2][]byte{}, [2]chan error{}
	for i, off := range cold {
		i, off := i, off
		got[i], read[i] = make([]byte, win), make(chan error, 1)
		go func() { read[i] <- s.ReadFileAt(0, got[i], off, nil) }()
	}
	for deadline := time.Now().Add(10 * time.Second); gfs.reads.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cold reads never both reached the backend")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for i, off := range cold {
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while %d backend reads were held", err, len(cold)-i)
		case <-time.After(50 * time.Millisecond):
		}
		gfs.at[off].open()
		switch err := <-read[i]; {
		case err == nil:
			if !bytes.Equal(got[i], wantWindow(raw, off, win)) {
				t.Fatalf("the read at %d that raced Close returned bytes that differ from the file", off)
			}
		case !errors.Is(err, ErrServerClosed):
			t.Fatalf("the read at %d that raced Close: %v, want its bytes or ErrServerClosed", off, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if gfs.closedEarly.Load() {
		t.Fatal("Close closed a physical file while a backend read was held")
	}
	if err := s.ReadFileAt(0, p, resident, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("resident read after Close: %v, want ErrServerClosed", err)
	}
}

// TestMissUnderCloseFailsFast: a read whose first miss finds its cell's
// close guard taken — a Close under way — fails with ErrServerClosed at
// once. It holds the claim of that miss by then, so waiting on the guard
// could stall a reader that waits for the claim, and Close with it; the
// claim is aborted, so no pending entry is left, and the block is served
// once the guard is free.
func TestMissUnderCloseFailsFast(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	raw := writeOneFile(t, fsys, "u.sion", 4, 64<<10, 4096)
	s, err := New(fsys, "u.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const off, win = 100 << 10, 8 << 10
	c := &s.m.cells[s.cache.shardIndex(blockKey{0, (off + s.shift[0]) / s.blockBytes})]
	c.guard.Lock() // as Close holds it
	done := make(chan error, 1)
	go func() { done <- s.ReadFileAt(0, make([]byte, win), off, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("a miss under a held close guard: %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a miss waited on a close guard that Close holds")
	}
	c.guard.Unlock()
	for i := range s.cache.shards {
		for k, e := range s.cache.shards[i].items {
			if e.pending {
				t.Fatalf("block %v left pending by a read that failed", k)
			}
		}
	}
	p := make([]byte, win)
	if err := s.ReadFileAt(0, p, off, nil); err != nil || !bytes.Equal(p, wantWindow(raw, off, win)) {
		t.Fatalf("the same read with the guard free: %v", err)
	}
}

// TestMissAfterCloseAbortsItsClaim: a pass that claimed its first miss
// and reaches the fetch's close guard only once Close is over — Close took
// every guard, set closed and gave the guards back — takes the guard,
// finds the server closed and fails with ErrServerClosed. It aborts the
// claim, so a later acquire of the block is not told to wait for a fill
// that nobody makes, and gives the guard back. The test stops readAt's
// pass at its hand-over to readMissed, which is where the schedule puts
// Close.
func TestMissAfterCloseAbortsItsClaim(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeOneFile(t, fsys, "a.sion", 4, 64<<10, 4096)
	s, err := New(fsys, "a.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const win = 8 << 10
	p, off := make([]byte, win), 100<<10+s.shift[0]
	b := off / s.blockBytes
	k := blockKey{0, b}
	si := s.cache.shardIndex(k)
	dst, from := blockWindow(p, off, b, s.blockBytes)
	sh, e := s.cache.lookup(si, k, dst, from)
	if sh == nil {
		t.Fatal("the first read of a block hit")
	}
	snap := s.snap.Load()
	base, top := s.bounds(snap, 0, b)
	f, got := s.cache.claimMiss(sh, k, e, dst, from, base, top, s.blockBytes, win >= s.fsBlock)
	if got != claimMine {
		t.Fatalf("the first miss of a cache with room: claim %d, want a pending entry", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	c := &s.m.cells[si]
	if err := s.readMissed(0, c, si, p, off, snap, b, f, got, nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("a fetch guarded after Close: %v, want ErrServerClosed", err)
	}
	if _, got := s.cache.acquire(si, k, dst, from, base, top, s.blockBytes, false, false); got == claimWait {
		t.Fatal("the claim of a read that failed at its guard is still pending")
	}
	if !c.guard.TryLock() {
		t.Fatal("a read that failed at its guard still holds it")
	}
	c.guard.Unlock()
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left after Close, want %d", runtime.NumGoroutine(), base)
			return
		}
	}
}

// fullTinyServer serves a one-file multifile of 256-byte FS blocks through
// one shard of four 256-byte blocks, which small windows at the start of
// the file fill. The shard then counts accesses, as it does once it has
// had to evict, and each resident block is hit until its count saturates:
// every later first-touch block of a window of one FS block or more has
// been asked for less often than the LRU tail and is read around the
// cache. cfg's cache geometry is overridden.
func fullTinyServer(t *testing.T, fsys fsio.FileSystem, cfg Config) (*Server, []byte) {
	t.Helper()
	raw := writeOneFile(t, fsys, "t.sion", 8, 8<<10, 256)
	cfg.CacheBytes, cfg.BlockBytes, cfg.Shards = 4*256, 256, 1
	s, err := New(fsys, "t.sion", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for b := int64(0); b < 4; b++ {
		if err := s.ReadFileAt(0, make([]byte, 256), b*256, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.cache.shards[0].freq.init(4, ablation{})
	for i := 0; i < 15; i++ {
		if err := s.ReadFileAt(0, make([]byte, 4*256), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CachedBytes != 4*256 || st.ReadAround != 0 || st.BackendReads != 4 {
		t.Fatalf("small windows did not fill the cache: %+v", st)
	}
	return s, raw
}

// readPoisoned reads [off, off+n) of physical file 0 into a buffer of 0xAA
// bytes and, if the read succeeds, checks it against raw (zeros past EOF).
func readPoisoned(t *testing.T, s *Server, raw []byte, off, n int64) error {
	t.Helper()
	p := bytes.Repeat([]byte{0xAA}, int(n))
	err := s.ReadFileAt(0, p, off, nil)
	if err == nil && !bytes.Equal(p, wantWindow(raw, off, n)) {
		t.Fatalf("%d bytes at %d differ from the file", n, off)
	}
	return err
}

// TestReadAroundIsByteIdentical: windows a full cache reads around — one
// across resident blocks, one across the physical file's end — deliver the
// file's bytes and zeros past EOF into a poisoned buffer, on both miss
// paths, and leave the cache as it was.
func TestReadAroundIsByteIdentical(t *testing.T) {
	for _, mp := range missPaths {
		t.Run(mp.name, func(t *testing.T) {
			s, raw := fullTinyServer(t, mp.wrap(fsio.NewOS(t.TempDir())), Config{})
			size := int64(len(raw))
			for _, w := range []struct{ off, n int64 }{
				{100, 4000},             // blocks 0-3 hit, 4-15 read around
				{size - 3000, 6000},     // straddles EOF
				{size + 100, 2000},      // wholly past EOF
				{size/2 + 7, 1 << 10},   // four FS blocks
				{size/3 + 300, 8 << 10}, // a long run, one vector
			} {
				if err := readPoisoned(t, s, raw, w.off, w.n); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Stats()
			if st.ReadAround == 0 || st.Evictions != 0 || st.CachedBytes != 4*256 || st.BackendReads != 5+4 {
				t.Fatalf("want five backend reads around a cache left as it was: %+v", st)
			}
			sp := obs.NewSpan("")
			if err := s.ReadFileAt(0, make([]byte, 2048), 40<<10, sp); err != nil {
				t.Fatal(err)
			}
			if sp.Get(obs.CrumbReadAround) != 8 || sp.Get(obs.CrumbBackendRead) != 1 {
				t.Fatalf("the trail of eight blocks read around the cache in one span: %s", sp)
			}
		})
	}
}

// TestReadAroundSplitsAtMaxReadBytes: a run read around the cache is cut
// into requests within the backend's ranged-read ceiling, on the cache
// block grid, like a run of frames.
func TestReadAroundSplitsAtMaxReadBytes(t *testing.T) {
	rec := &recordFS{FileSystem: fsio.NewOS(t.TempDir()), caps: fsio.Capabilities{MaxReadBytes: 1024}, sum: sha256.New()}
	s, raw := fullTinyServer(t, rec, Config{})
	rec.mu.Lock()
	rec.armed = true
	rec.mu.Unlock()
	const off, n = 4096 + 300, 6000 // blocks 17-40: six requests of at most four blocks
	if err := readPoisoned(t, s, raw, off, n); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if st := s.Stats(); rec.reads != 6 || rec.longest > 1024 || st.ReadAround != 24 {
		t.Fatalf("%d requests, the longest %d bytes, %d blocks read around; want 6 of at most 1024 for 24 blocks",
			rec.reads, rec.longest, st.ReadAround)
	}
}

// TestReadAroundGiveUpIsABreakerFailure: a request whose blocks are all
// read around the cache runs under the retry budget, and its transient
// give-up is the request's breaker verdict — with a threshold of one, it
// opens the circuit.
func TestReadAroundGiveUpIsABreakerFailure(t *testing.T) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	s, raw := fullTinyServer(t, fl.Wrap(fsio.NewOS(t.TempDir()), nil), Config{Retry: noRealSleep(2), BreakerThreshold: 1, BreakerCooldown: 4})
	fl.SetRule(readFault(8<<10, 16<<10, fmt.Errorf("down: %w", fsio.ErrTransient)))
	before := s.Stats()
	err := readPoisoned(t, s, raw, 8<<10+100, 4096)
	if !errors.Is(err, fsio.ErrTransient) || errors.Is(err, ErrDegraded) {
		t.Fatalf("read around a failing region: %v, want its transient error", err)
	}
	st := s.Stats()
	if st.ReadAround == before.ReadAround || st.Retries != 1 || st.GiveUps != 1 || st.BreakerOpens != 1 || s.Health()[0].StateName != "open" {
		t.Fatalf("want one retried read-around span that gave up and opened the circuit: %+v, file 0 %s", st, s.Health()[0].StateName)
	}
	if st.CachedBytes != 4*256 || st.Evictions != 0 {
		t.Fatalf("a failed read around the cache moved it: %+v", st)
	}
}

// TestReadAroundFailsFastWhenDegraded: with the circuit open, a request
// that would only read around the cache fails fast with ErrDegraded and
// issues no backend read, while a request the cache holds still succeeds.
func TestReadAroundFailsFastWhenDegraded(t *testing.T) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	s, raw := fullTinyServer(t, fl.Wrap(fsio.NewOS(t.TempDir()), nil), Config{Retry: noRealSleep(1), BreakerThreshold: 1, BreakerCooldown: 4})
	fl.SetRule(readFault(8<<10, 16<<10, fmt.Errorf("down: %w", fsio.ErrTransient)))
	if err := readPoisoned(t, s, raw, 8<<10, 2048); err == nil {
		t.Fatal("read of a failing region succeeded")
	}
	before := s.Stats()
	if err := readPoisoned(t, s, raw, 20<<10, 4096); !errors.Is(err, ErrDegraded) {
		t.Fatalf("read around the cache with the circuit open: %v, want ErrDegraded", err)
	}
	if err := readPoisoned(t, s, raw, 0, 1024); err != nil {
		t.Fatalf("resident window with the circuit open: %v", err)
	}
	st := s.Stats()
	if st.BackendReads != before.BackendReads || st.Degraded != before.Degraded+1 || st.ReadAround == before.ReadAround {
		t.Fatalf("the degraded request was not failed fast after being read around: %+v -> %+v", before, st)
	}
}
