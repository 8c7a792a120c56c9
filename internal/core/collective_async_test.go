package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/simfs"
)

func TestAsyncCollectiveRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		n, group, nfiles    int
		chunk, fsblk, flush int64 // flush: the unit the geometry yields
	}{
		{8, 4, 1, 300, 256, 256}, // capacity 512: two frames per chunk
		{8, 3, 1, 128, 64, 64},   // tiny unit: many frames per member
		{9, 4, 2, 256, 128, 128}, // two physical files
		{6, 6, 1, 400, 128, 256}, // one group spanning the whole file
		{5, 2, 1, 160, 32, 96},   // odd group split; half of 160 rounds up
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("n=%d g=%d files=%d q=%d", cfg.n, cfg.group, cfg.nfiles, cfg.flush), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			base := runtime.NumGoroutine()
			mpi.Run(cfg.n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "async.sion", WriteMode, &Options{
					ChunkSize: cfg.chunk, FSBlockSize: cfg.fsblk,
					NFiles: cfg.nfiles, CollectorGroup: cfg.group, AsyncCollective: true,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if f.coll.quantum != cfg.flush {
					t.Errorf("rank %d: flush unit %d, want %d", c.Rank(), f.coll.quantum, cfg.flush)
				}
				payload := rankPayload(c.Rank(), 1000+31*c.Rank())
				for off := 0; off < len(payload); off += 217 {
					end := off + 217
					if end > len(payload) {
						end = len(payload)
					}
					if _, err := f.Write(payload[off:end]); err != nil {
						t.Error(err)
						return
					}
				}
				if err := f.Flush(); err != nil {
					t.Errorf("rank %d: Flush: %v", c.Rank(), err)
				}
				if err := f.Close(); err != nil {
					t.Error(err)
					return
				}

				r, err := ParOpen(c, fsys, "async.sion", ReadMode, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, len(payload))
				if _, err := io.ReadFull(r, got); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("rank %d: async collective round-trip mismatch", c.Rank())
				}
				r.Close()
			})
			waitGoroutines(t, base)
			if err := Verify(fsys, "async.sion"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within a second: a real-mode async Close must stop its flusher.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left after Close, want %d", runtime.NumGoroutine(), base)
			return
		}
	}
}

// An async-collective multifile must be byte-identical to a direct one,
// in real mode (flusher goroutine) and simulated mode (vtime worker; simfs
// stores real bytes).
func TestAsyncCollectiveEquivalentToDirect(t *testing.T) {
	const n = 6
	write := func(c *mpi.Comm, fsys fsio.FileSystem) {
		for _, m := range []struct {
			name  string
			group int
		}{{"direct.sion", 0}, {"async.sion", 3}} {
			f, err := ParOpen(c, fsys, m.name, WriteMode, &Options{ // flush unit 64
				ChunkSize: 128, FSBlockSize: 64, CollectorGroup: m.group, AsyncCollective: m.group > 0,
			})
			if err != nil {
				t.Error(err)
				return
			}
			payload := rankPayload(c.Rank(), 500)
			for off := 0; off < len(payload); off += 90 {
				c.Advance(1e-4) // compute between records (simulated mode)
				f.Write(payload[off:min(off+90, len(payload))])
			}
			f.Close()
		}
	}
	t.Run("real", func(t *testing.T) {
		fsys := fsio.NewOS(t.TempDir())
		mpi.Run(n, func(c *mpi.Comm) { write(c, fsys) })
		mustEqualFiles(t, fsys, "direct.sion", "async.sion")
	})
	t.Run("sim", func(t *testing.T) {
		fs := runSim(t, n, write)
		mustEqualFiles(t, fs.View(0, nil), "direct.sion", "async.sion")
	})
}

// mustEqualFiles asserts two multifile segments are byte-identical.
func mustEqualFiles(t *testing.T, fsys fsio.FileSystem, a, b string) {
	t.Helper()
	fa, err := fsys.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := fsys.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	sa, _ := fa.Size()
	sb, _ := fb.Size()
	if sa != sb {
		t.Fatalf("%s and %s sizes differ: %d vs %d", a, b, sa, sb)
	}
	ba, bb := make([]byte, sa), make([]byte, sb)
	fa.ReadAt(ba, 0)
	fb.ReadAt(bb, 0)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("%s and %s differ byte-wise", a, b)
	}
}

func TestCollectiveReadRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ n, group, nfiles int }{
		{8, 4, 1}, {8, 3, 2}, {6, 6, 1}, {5, 2, 1}, {7, CollectorAuto, 1},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("n=%d g=%d files=%d", cfg.n, cfg.group, cfg.nfiles), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			mpi.Run(cfg.n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "cread.sion", WriteMode, &Options{
					ChunkSize: 300, FSBlockSize: 256, NFiles: cfg.nfiles,
				})
				if err != nil {
					t.Error(err)
					return
				}
				payload := rankPayload(c.Rank(), 900+13*c.Rank())
				f.Write(payload)
				if err := f.Close(); err != nil {
					t.Error(err)
					return
				}

				r, err := ParOpen(c, fsys, "cread.sion", ReadMode,
					&Options{CollectorGroup: cfg.group})
				if err != nil {
					t.Error(err)
					return
				}
				if r.collRead == nil {
					t.Errorf("rank %d: collective read not in effect", c.Rank())
				}
				// Sequential read.
				got := make([]byte, len(payload))
				if _, err := io.ReadFull(r, got); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("rank %d: collective read mismatch", c.Rank())
				}
				// Random logical access from the prefetched stream.
				probe := make([]byte, 100)
				if _, err := r.ReadLogicalAt(probe, 321); err != nil && err != io.EOF {
					t.Errorf("rank %d: ReadLogicalAt: %v", c.Rank(), err)
				} else if !bytes.Equal(probe, payload[321:421]) {
					t.Errorf("rank %d: ReadLogicalAt mismatch", c.Rank())
				}
				if !r.EOF() {
					t.Errorf("rank %d: EOF not reached", c.Rank())
				}
				r.Close()
			})
		})
	}
}

// Collective read must also serve multi-block streams (data spanning
// several chunks) and Seek.
func TestCollectiveReadMultiBlock(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 6
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "mb.sion", WriteMode, &Options{
			ChunkSize: 100, FSBlockSize: 64,
		})
		if err != nil {
			t.Error(err)
			return
		}
		payload := rankPayload(c.Rank(), 700) // several 128-byte chunks
		f.Write(payload)
		f.Close()

		r, err := ParOpen(c, fsys, "mb.sion", ReadMode, &Options{CollectorGroup: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.Seek(2, 10); err != nil {
			t.Errorf("rank %d: Seek: %v", c.Rank(), err)
		}
		capacity := r.ChunkCapacity()
		want := payload[2*int(capacity)+10:]
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: Seek+Read mismatch after collective prefetch", c.Rank())
		}
		r.Close()
	})
}

// --- Deferred-error surfacing ----------------------------------------------

var errInjected = errors.New("injected write failure")

// failWrites is the rule of a backend whose every write fails.
func failWrites(op simfs.FlakyOp) error {
	if op.Op == "WriteAt" || op.Op == "WriteZeroAt" {
		return errInjected
	}
	return nil
}

// A collector write failure in async mode must surface at Close on every
// group member, not just the collector.
func TestAsyncCollectiveDeferredError(t *testing.T) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	ff := fl.Wrap(fsio.NewOS(t.TempDir()), nil)
	const n = 4
	var mu sync.Mutex
	closeErrs := make(map[int]error)
	base := runtime.NumGoroutine()
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, ff, "fail.sion", WriteMode, &Options{ // flush unit 32
			ChunkSize: 64, FSBlockSize: 32, CollectorGroup: 4, AsyncCollective: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			fl.SetRule(failWrites) // all subsequent collector writes fail
		}
		c.Barrier()
		f.Write(rankPayload(c.Rank(), 256))
		err = f.Close()
		mu.Lock()
		closeErrs[c.Rank()] = err
		mu.Unlock()
	})
	waitGoroutines(t, base)
	for r := 0; r < n; r++ {
		if closeErrs[r] == nil {
			t.Errorf("rank %d: Close returned nil, want deferred write error", r)
		}
	}
}

// Flush on an async collector must surface a deferred error without
// waiting for Close.
func TestAsyncCollectorFlushSurfacesError(t *testing.T) {
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	ff := fl.Wrap(fsio.NewOS(t.TempDir()), nil)
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := ParOpen(c, ff, "flusherr.sion", WriteMode, &Options{ // flush unit 32
			ChunkSize: 64, FSBlockSize: 32, CollectorGroup: 2, AsyncCollective: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		// Group of 1 (size clamp): still collective, rank 0 is collector.
		fl.SetRule(failWrites)
		f.Write(rankPayload(0, 256)) // emits failing frames
		if err := f.Flush(); err == nil {
			// The flusher may not have applied the frame yet in real
			// mode; Close must surface it regardless.
			if cerr := f.Close(); cerr == nil {
				t.Error("neither Flush nor Close surfaced the deferred error")
			}
			return
		}
		f.Close()
	})
}

func TestAutoCollectorGroup(t *testing.T) {
	for _, tc := range []struct {
		nlocal  int
		aligned int64
		fsblk   int64
		want    int
	}{
		{16, 256, 256, 4},  // 4 blocks / 1-block chunks → 4 members
		{16, 64, 256, 16},  // tiny chunks → whole file, capped by size
		{2, 64, 256, 2},    // capped by the local task count
		{16, 4096, 256, 1}, // chunk already spans 16 blocks → direct
		{4096, 1, 256, 64}, // capped by maxAutoGroup
	} {
		if got := autoCollectorGroup(tc.nlocal, tc.aligned, tc.fsblk); got != tc.want {
			t.Errorf("autoCollectorGroup(%d, %d, %d) = %d, want %d",
				tc.nlocal, tc.aligned, tc.fsblk, got, tc.want)
		}
	}
}

// End-to-end CollectorAuto: the resolved group must be consistent and the
// data intact. aligned = 256 = 1 block and the target is 4 blocks, so a
// write groups 4 of a physical file's tasks (capped by their count), and
// a read groups 4 of all 8 readers whatever the file count.
func TestCollectorAutoEndToEnd(t *testing.T) {
	const n = 8
	for _, tc := range []struct{ nfiles, writeGroup int }{{1, 4}, {2, 4}, {4, 2}} {
		t.Run(fmt.Sprintf("nfiles=%d", tc.nfiles), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			mpi.Run(n, func(c *mpi.Comm) {
				f, err := ParOpen(c, fsys, "auto.sion", WriteMode, &Options{
					ChunkSize: 64, FSBlockSize: 256, NFiles: tc.nfiles,
					CollectorGroup: CollectorAuto, AsyncCollective: true,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if f.coll == nil || f.coll.group != tc.writeGroup {
					t.Errorf("rank %d: write auto group = %+v, want %d", c.Rank(), f.coll, tc.writeGroup)
				}
				payload := rankPayload(c.Rank(), 600)
				f.Write(payload)
				if err := f.Close(); err != nil {
					t.Error(err)
					return
				}
				r, err := ParOpen(c, fsys, "auto.sion", ReadMode, &Options{CollectorGroup: CollectorAuto})
				if err != nil {
					t.Error(err)
					return
				}
				if r.collRead == nil {
					t.Errorf("rank %d: read auto group not collective", c.Rank())
				}
				// ParOpen's read open is the mapped open of the reader's own
				// rank: the mapped handle reports the group it resolved.
				mf, err := ParOpenMapped(c, fsys, "auto.sion", ReadMode, []int{c.Rank()}, &Options{CollectorGroup: CollectorAuto})
				if err != nil {
					t.Error(err)
					return
				}
				if group, lead := mf.Collective(); group != 4 || lead != (c.Rank()%4 == 0) {
					t.Errorf("rank %d: read auto group = %d (collector %v), want 4", c.Rank(), group, lead)
				}
				mf.Close()
				got := make([]byte, len(payload))
				if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("rank %d: auto-group round-trip mismatch (%v)", c.Rank(), err)
				}
				r.Close()
			})
			if err := Verify(fsys, "auto.sion"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A collector whose region reads fail must fail the collective-read open
// on every group member — members must never be handed fabricated zeros.
func TestCollectiveReadCollectorFailureSurfaces(t *testing.T) {
	base := fsio.NewOS(t.TempDir())
	const n = 4
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "rfail.sion", WriteMode, &Options{
			ChunkSize: 4096, FSBlockSize: 512,
		})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 2000))
		f.Close()
	})
	// Fail the large reads of the data regions and let the small metadata
	// reads through: the collector's region read is the casualty.
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	fl.SetRule(failReads(1001, errInjected))
	ff := fl.Wrap(base, nil)
	var mu sync.Mutex
	errs := make(map[int]error)
	mpi.Run(n, func(c *mpi.Comm) {
		_, err := ParOpen(c, ff, "rfail.sion", ReadMode, &Options{CollectorGroup: n})
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
	})
	for r := 0; r < n; r++ {
		if errs[r] == nil {
			t.Errorf("rank %d: collective-read open succeeded despite collector read failure", r)
		}
	}
}

// A collector that cannot open the physical file must fail every group
// member's ParOpen instead of leaving them blocked waiting for data.
func TestCollectiveReadCollectorOpenFailureFailsMembers(t *testing.T) {
	base := fsio.NewOS(t.TempDir())
	const n = 4
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "ofail.sion", WriteMode, &Options{
			ChunkSize: 512, FSBlockSize: 256,
		})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 300))
		f.Close()
	})
	// Reads: (1) world rank 0 header, (2) master metadata, then (3) the
	// collector's data open — which must be the one that fails.
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	opens := 0
	fl.SetRule(func(op simfs.FlakyOp) error {
		if op.Op != "Open" {
			return nil
		}
		if opens++; opens > 2 {
			return errInjected
		}
		return nil
	})
	ff := fl.Wrap(base, nil)
	var mu sync.Mutex
	errs := make(map[int]error)
	mpi.Run(n, func(c *mpi.Comm) {
		_, err := ParOpen(c, ff, "ofail.sion", ReadMode, &Options{CollectorGroup: n})
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
	})
	for r := 0; r < n; r++ {
		if errs[r] == nil {
			t.Errorf("rank %d: ParOpen succeeded despite the collector's open failing", r)
		}
	}
}

// TestAsyncCollectiveWorkerThroughDecorators: under simulation an async
// collector runs its flusher on a vtime worker through simfs's
// decorators — through an object-store wrap it makes the mutating calls
// it makes on the bare view — and a decorator that cannot host the worker
// fails ParOpen on every rank, naming the condition, where the collector
// used to fall back to flushing inline.
func TestAsyncCollectiveWorkerThroughDecorators(t *testing.T) {
	run := func(wrap func(c *mpi.Comm, v fsio.FileSystem) fsio.FileSystem) (errs [sweepRanks]error) {
		err := sweepSim(simfs.New(simfs.Jugene()), nil, func(c *mpi.Comm, v fsio.FileSystem) {
			f, err := ParOpen(c, wrap(c, v), "a.sion", WriteMode, &Options{
				ChunkSize: 512, FSBlockSize: 256, NFiles: 1, BufferSize: BufferOff,
				CollectorGroup: 2, AsyncCollective: true,
			})
			if errs[c.Rank()] = err; err != nil {
				return
			}
			for i := 0; i < 4; i++ {
				f.Write(sweepPayload(c.Rank(), i))
			}
			errs[c.Rank()] = f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return errs
	}
	// counted runs the workload with the mutating calls that reach wrap's
	// file system counted, and returns the count.
	counted := func(wrap func(c *mpi.Comm, v fsio.FileSystem) fsio.FileSystem) int {
		fl := simfs.NewFlaky(simfs.FlakyConfig{})
		r := &failKth{ops: sweepWriteOps}
		fl.SetRule(r.rule)
		for rank, err := range run(func(c *mpi.Comm, v fsio.FileSystem) fsio.FileSystem { return fl.Wrap(wrap(c, v), nil) }) {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		return r.n
	}
	bare := counted(func(_ *mpi.Comm, v fsio.FileSystem) fsio.FileSystem { return v })
	obj := simfs.NewObjStore(simfs.StockObjProfile())
	if got := counted(func(c *mpi.Comm, v fsio.FileSystem) fsio.FileSystem {
		return obj.Wrap(v, func(s float64) { c.Advance(s) })
	}); got != bare {
		t.Errorf("through an object-store wrap the write made %d mutating calls, on the bare view %d", got, bare)
	}

	named := false
	for rank, err := range run(func(_ *mpi.Comm, v fsio.FileSystem) fsio.FileSystem { return resil.Wrap(v, resil.Budget{}, nil) }) {
		if err == nil {
			t.Errorf("rank %d: ParOpen succeeded through resil.Wrap, which cannot host the flusher's worker", rank)
		}
		named = named || errors.Is(err, errNoWorker)
	}
	if !named {
		t.Error("no rank's error names the missing worker host")
	}
}
