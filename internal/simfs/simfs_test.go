package simfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fsio"
	"repro/internal/vtime"
)

// serialView returns a cost-free view for data-correctness tests.
func serialView(fs *FS) *View { return fs.View(0, nil) }

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs := New(Jugene())
	v := serialView(fs)
	f, err := v.Create("dir/a.sion")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox")
	if _, err := f.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if sz, _ := f.Size(); sz != 12345+int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	fs := New(Jugene())
	f, _ := serialView(fs).Create("x")
	f.WriteZeroAt(1, 999999) // extend size without content
	b := []byte{1, 2, 3}
	if _, err := f.ReadAt(b, 100); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 0 || b[2] != 0 {
		t.Fatalf("unwritten read = %v", b)
	}
	// A simulated read of a file that only Truncate extended (no file
	// has received writes yet) costs what a read of a written file does.
	// A fast client link leaves the file's token to bound the read.
	readTime := func(extend func(f fsio.File)) float64 {
		prof := Jugene()
		prof.ClientBW = 1e18
		var took float64
		runTasks(New(prof), 1, func(i int, v *View, p *vtime.Proc) {
			f, _ := v.Create("t")
			extend(f)
			p.AdvanceTo(phaseStart)
			if _, err := f.ReadDiscardAt(1<<20, 0); err != nil {
				t.Error(err)
			}
			took = p.Now() - phaseStart
		})
		return took
	}
	truncated := readTime(func(f fsio.File) { f.Truncate(1 << 20) })
	written := readTime(func(f fsio.File) { f.WriteZeroAt(1<<20, 0) })
	if truncated != written || truncated <= 0 {
		t.Fatalf("read of a truncated file took %g s, of a written one %g s", truncated, written)
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := New(Jugene())
	f, _ := serialView(fs).Create("x")
	f.WriteAt([]byte("abc"), 0)
	b := make([]byte, 10)
	n, err := f.ReadAt(b, 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if string(b[:2]) != "bc" {
		t.Fatalf("got %q", b[:2])
	}
	n2, err := f.ReadDiscardAt(100, 0)
	if n2 != 3 || err != nil {
		t.Fatalf("discard n=%d err=%v", n2, err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := New(Jugene())
	v := serialView(fs)
	if _, err := v.Open("nope"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Stat("nope"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("Stat err = %v", err)
	}
	if err := v.Remove("nope"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("Remove err = %v", err)
	}
	if _, ok := fs.Stats("nope"); ok {
		t.Fatal("Stats of a missing file reported one")
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	fs := New(Jugene())
	v := serialView(fs)
	f, _ := v.Create("x")
	f.WriteAt([]byte("hello"), 0)
	f.Close()
	g, _ := v.Create("x")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("size after truncating create = %d", sz)
	}
	if fs.NumFiles() != 1 {
		t.Fatalf("NumFiles = %d", fs.NumFiles())
	}
}

func TestRemove(t *testing.T) {
	fs := New(Jugene())
	v := serialView(fs)
	f, _ := v.Create("x")
	f.WriteZeroAt(1000, 0)
	if err := v.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("x"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("open after remove: %v", err)
	}
	if fs.UsedBytes() != 0 {
		t.Fatalf("used = %d after remove", fs.UsedBytes())
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read through removed file's handle succeeded")
	}
	// A simulated task pays the unlink.
	runTasks(fs, 1, func(i int, v *View, p *vtime.Proc) {
		v.Create("y")
		before := p.Now()
		if err := v.Remove("y"); err != nil {
			t.Error(err)
		}
		if got := p.Now() - before; got < fs.prof.RemoveCost {
			t.Errorf("remove took %g s of virtual time, want at least %g", got, fs.prof.RemoveCost)
		}
	})
}

func TestExtentAccounting(t *testing.T) {
	fs := New(Jugene())
	f, _ := serialView(fs).Create("x")
	f.WriteZeroAt(100, 0)
	f.WriteZeroAt(100, 1000) // gap between 100 and 1000
	if fs.UsedBytes() != 200 {
		t.Fatalf("used = %d, want 200 (gap must stay logical)", fs.UsedBytes())
	}
	f.WriteZeroAt(950, 50) // bridges the gap: [0,1100)
	if fs.UsedBytes() != 1100 {
		t.Fatalf("used = %d, want 1100", fs.UsedBytes())
	}
	f.WriteAt(nil, 5000) // an empty write allocates nothing
	if fs.UsedBytes() != 1100 {
		t.Fatalf("used after an empty write = %d, want 1100", fs.UsedBytes())
	}
	if err := f.Truncate(500); err != nil {
		t.Fatal(err)
	}
	if fs.UsedBytes() != 500 {
		t.Fatalf("used after truncate = %d, want 500", fs.UsedBytes())
	}
}

// Property: extent bookkeeping equals a brute-force bitmap model.
func TestExtentProperty(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Len  uint8
		Trim bool
	}) bool {
		fs := New(Jugene())
		fl, _ := serialView(fs).Create("x")
		model := make(map[int64]bool)
		size := int64(0)
		for _, op := range ops {
			off, n := int64(op.Off), int64(op.Len)
			if op.Trim {
				cut := off % (size + 1)
				fl.Truncate(cut)
				for k := range model {
					if k >= cut {
						delete(model, k)
					}
				}
				size = cut
				continue
			}
			fl.WriteZeroAt(n, off)
			for i := int64(0); i < n; i++ {
				model[off+i] = true
			}
			if n > 0 && off+n > size {
				size = off + n
			}
		}
		sz, _ := fl.Size()
		return fs.UsedBytes() == int64(len(model)) && sz == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: page-sparse content matches a reference byte map under random
// writes and reads.
func TestContentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := New(Jugene())
	f, _ := serialView(fs).Create("x")
	ref := make([]byte, 1<<18)
	var size int64
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(len(ref) - 300))
		n := 1 + rng.Intn(299)
		buf := make([]byte, n)
		rng.Read(buf)
		f.WriteAt(buf, off)
		copy(ref[off:], buf)
		if off+int64(n) > size {
			size = off + int64(n)
		}
	}
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(len(ref) - 300))
		n := 1 + rng.Intn(299)
		got := make([]byte, n)
		r, _ := f.ReadAt(got, off)
		want := ref[off:min(off+int64(n), size)]
		if !bytes.Equal(got[:r], want) {
			t.Fatalf("mismatch at off=%d n=%d", off, n)
		}
	}
}

// --- Cost-model behaviour ------------------------------------------------

// runTasks runs n simulated tasks against fs and returns the makespan.
func runTasks(fs *FS, n int, body func(task int, v *View, p *vtime.Proc)) float64 {
	e := vtime.NewEngine()
	var end float64
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(0, func(p *vtime.Proc) {
			body(i, fs.View(i, p), p)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	e.Run()
	return end
}

func TestCreateSerializesInDirectory(t *testing.T) {
	prof := Jugene()
	fs := New(prof)
	t1 := runTasks(fs, 1, func(i int, v *View, p *vtime.Proc) {
		v.Create("d/f0")
	})
	fs2 := New(prof)
	t256 := runTasks(fs2, 256, func(i int, v *View, p *vtime.Proc) {
		v.Create("d/f" + itoa(i))
	})
	if t256 < 200*t1 {
		t.Fatalf("256 parallel creates took %.4fs vs single %.4fs: not serialized", t256, t1)
	}
}

func itoa(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestOpenExistingCheaperThanCreate(t *testing.T) {
	prof := Jugene()
	fs := New(prof)
	n := 512
	tCreate := runTasks(fs, n, func(i int, v *View, p *vtime.Proc) {
		v.Create("d/f" + itoa(i))
	})
	fs.DropCaches()
	fs.ResetServers()
	tOpen := runTasks(fs, n, func(i int, v *View, p *vtime.Proc) {
		if _, err := v.Open("d/f" + itoa(i)); err != nil {
			t.Error(err)
		}
	})
	if tOpen >= tCreate/2 {
		t.Fatalf("open %0.3fs not clearly cheaper than create %0.3fs", tOpen, tCreate)
	}
}

func TestSharedOpenCheaperThanDistinctOpens(t *testing.T) {
	prof := Jugene()
	fs := New(prof)
	n := 1024
	runTasks(fs, 1, func(i int, v *View, p *vtime.Proc) {
		v.Create("d/shared")
		for k := 0; k < n; k++ {
			v.Create("d/f" + itoa(k))
		}
	})
	fs.DropCaches()
	fs.ResetServers()
	tShared := runTasks(fs, n, func(i int, v *View, p *vtime.Proc) {
		v.Open("d/shared")
	})
	fs.DropCaches()
	fs.ResetServers()
	tDistinct := runTasks(fs, n, func(i int, v *View, p *vtime.Proc) {
		v.Open("d/f" + itoa(i))
	})
	if tShared > tDistinct/3 {
		t.Fatalf("shared open %0.3fs vs distinct opens %0.3fs: shared should be far cheaper", tShared, tDistinct)
	}
}

// phaseStart is a virtual time safely after all setup (creates/opens) has
// completed; timed I/O phases in the cost-model tests start here so that
// every task begins the measured phase simultaneously, like a barrier.
const phaseStart = 1000.0

// More physical files engage more servers: writing the same volume through
// 16 files must be faster than through 1 file (Fig. 4 mechanism).
func TestMoreFilesMoreBandwidth(t *testing.T) {
	const total = 8 << 30
	prof := Jugene()
	prof.TasksPerClient = 1 // keep the test server-limited, not NIC-limited
	elapsed := func(nfiles int) float64 {
		fs := New(prof)
		ntasks := 64
		var maxEnd float64
		runTasks(fs, ntasks, func(i int, v *View, p *vtime.Proc) {
			name := "d/phys" + itoa(i%nfiles)
			var f fsio.File
			var err error
			if i < nfiles {
				f, err = v.Create(name)
			} else {
				p.Advance(1.0) // let creators go first
				f, err = v.OpenRW(name)
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.AdvanceTo(phaseStart)
			per := int64(total) / int64(ntasks)
			f.WriteZeroAt(per, int64(i)*per)
			if e := p.Now() - phaseStart; e > maxEnd {
				maxEnd = e
			}
		})
		return maxEnd
	}
	t1, t16 := elapsed(1), elapsed(16)
	if t16 > t1/1.8 {
		t.Fatalf("16 files %.2fs vs 1 file %.2fs: want ≥1.8x speedup", t16, t1)
	}
}

// Unaligned writers sharing FS blocks must pay lock revocations (Table 1).
func TestBlockLockContention(t *testing.T) {
	prof := Jugene()
	prof.TasksPerClient = 1 // keep the test server-limited, not NIC-limited
	run := func(aligned bool) float64 {
		fs := New(prof)
		const ntasks = 64
		// Contiguous per-task chunks; the unaligned variant is not a
		// multiple of the 2 MB FS block, so neighbours share blocks and
		// every task pays a serialized token revocation, which at this
		// chunk size dominates the data-path time (as in Table 1).
		chunk := int64(2 << 20)
		if !aligned {
			chunk += 16384
		}
		stride := chunk
		var maxEnd float64
		runTasks(fs, ntasks, func(i int, v *View, p *vtime.Proc) {
			var f fsio.File
			var err error
			if i == 0 {
				f, err = v.Create("d/one")
			} else {
				p.Advance(1.0)
				f, err = v.OpenRW("d/one")
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.AdvanceTo(phaseStart)
			f.WriteZeroAt(chunk, int64(i)*stride)
			if e := p.Now() - phaseStart; e > maxEnd {
				maxEnd = e
			}
		})
		return maxEnd
	}
	ta, tu := run(true), run(false)
	if tu < ta*1.2 {
		t.Fatalf("unaligned %.3fs vs aligned %.3fs: contention missing", tu, ta)
	}
}

// The Jaguar profile must not penalize misalignment (paper: effect not
// confirmed on Lustre).
func TestJaguarNoLockPenalty(t *testing.T) {
	if Jaguar().LockRevokeWrite != 0 {
		t.Fatal("Jaguar profile has write-lock revocation cost")
	}
}

func TestStripingOverride(t *testing.T) {
	fs := New(Jaguar())
	fs.SetStriping("d", 64, 8<<20)
	v := serialView(fs)
	v.Create("d/wide")
	v.Create("e/narrow")
	if got := fs.files["d/wide"].stripeCount; got != 64 {
		t.Fatalf("wide stripes = %d", got)
	}
	if got := fs.files["e/narrow"].stripeCount; got != 4 {
		t.Fatalf("narrow stripes = %d (want default 4)", got)
	}
	// A profile whose default stripes over more servers than it has
	// costs what striping over all of them does.
	writeTime := func(stripes int) float64 {
		prof := Jaguar()
		prof.DefaultStripeCount = stripes
		return runTasks(New(prof), 2, func(i int, v *View, p *vtime.Proc) {
			f, _ := v.Create("f" + itoa(i))
			f.WriteZeroAt(64<<20, 0)
		})
	}
	if all := Jaguar().NServers; writeTime(2*all) != writeTime(all) {
		t.Fatalf("a default stripe count beyond the %d servers is not capped", all)
	}
}

// TestReadScaleFloor: however much of a file the client caches hold, a
// read is at most 20 times faster than the servers' bandwidth. The client
// link is made fast enough that the servers bound the read.
func TestReadScaleFloor(t *testing.T) {
	readTime := func(boost float64) float64 {
		prof := Jaguar()
		prof.CacheBoost = boost
		prof.ClientBW = 1e18
		var took float64
		runTasks(New(prof), 1, func(i int, v *View, p *vtime.Proc) {
			f, _ := v.Create("f")
			f.WriteZeroAt(64<<20, 0)
			p.AdvanceTo(phaseStart)
			f.ReadDiscardAt(64<<20, 0)
			took = p.Now() - phaseStart
		})
		return took
	}
	if floor, below := readTime(0.999), readTime(0.9999); floor != below || floor <= 0 {
		t.Fatalf("reads at cache boosts 0.999 and 0.9999 took %g and %g s, want the same floor", floor, below)
	}
}

// Wider striping must buy a single file more bandwidth (Fig. 4b mechanism).
func TestWiderStripingFasterSingleFile(t *testing.T) {
	elapsed := func(stripe int) float64 {
		prof := Jaguar()
		prof.TasksPerClient = 1
		fs := New(prof)
		fs.SetStriping("d", stripe, 0)
		const ntasks = 32
		var maxEnd float64
		runTasks(fs, ntasks, func(i int, v *View, p *vtime.Proc) {
			var f fsio.File
			var err error
			if i == 0 {
				f, err = v.Create("d/one")
			} else {
				p.Advance(1.0)
				f, err = v.OpenRW("d/one")
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.AdvanceTo(phaseStart)
			per := int64(256 << 20)
			f.WriteZeroAt(per, int64(i)*per)
			if e := p.Now() - phaseStart; e > maxEnd {
				maxEnd = e
			}
		})
		return maxEnd
	}
	narrow, wide := elapsed(4), elapsed(64)
	if wide > narrow/4 {
		t.Fatalf("64-OST stripe %.2fs vs 4-OST %.2fs: want ≥4x speedup", wide, narrow)
	}
	// SetStriping clamps the count to 1..NServers.
	if zero, one := elapsed(0), elapsed(1); zero != one {
		t.Fatalf("stripe count 0 took %.2fs, count 1 %.2fs: want the same", zero, one)
	}
	if all := Jaguar().NServers; elapsed(10*all) != elapsed(all) {
		t.Fatalf("a stripe count beyond the %d servers is not clamped", all)
	}
}

// Reading data you just wrote on Jaguar must be faster once cached
// (Fig. 5b mechanism). The configuration is server-limited (64 tasks on 16
// client links vs a 4-OST file), where the cache boost is visible.
func TestJaguarReadCacheBoost(t *testing.T) {
	prof := Jaguar()
	const ntasks = 64
	aggReadBW := func(perTask int64) float64 {
		fs := New(prof)
		var maxEnd float64
		runTasks(fs, ntasks, func(i int, v *View, p *vtime.Proc) {
			var f fsio.File
			var err error
			if i == 0 {
				f, err = v.Create("d/x")
			} else {
				p.Advance(1.0)
				f, err = v.OpenRW("d/x")
			}
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteZeroAt(perTask, int64(i)*perTask)
			p.AdvanceTo(phaseStart) // all reads start together
			f.ReadDiscardAt(perTask, int64(i)*perTask)
			if e := p.Now() - phaseStart; e > maxEnd {
				maxEnd = e
			}
		})
		return float64(perTask*ntasks) / maxEnd
	}
	// Small total volume → fully cached; huge volume → mostly uncached.
	small := aggReadBW(64 << 20) // 4 GB total < 32 GB aggregate cache
	big := aggReadBW(4 << 30)    // 256 GB total >> cache
	if small < big*1.05 {
		t.Fatalf("cached read bw %.0f not clearly above uncached %.0f", small, big)
	}
}

// TestConcurrentReadAtOnOneHandle pins the fsio.File concurrency contract
// on the simulated backend: many goroutines reading through one unmetered
// handle (what internal/serve does on every cache miss) neither race —
// this runs under -race in CI — nor lose a request from the ledger.
func TestConcurrentReadAtOnOneHandle(t *testing.T) {
	fs := New(Jugene())
	w, _ := serialView(fs).Create("shared")
	data := make([]byte, 3*pageSize+123)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	h, err := fs.View(7, nil).Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := fs.Stats("shared")

	const readers, each = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 5000)
			for i := 0; i < each; i++ {
				off := rng.Int63n(int64(len(data)))
				if i%2 == 1 {
					if _, err := h.ReadDiscardAt(int64(len(buf)), off); err != nil {
						t.Error(err)
					}
					continue
				}
				n, err := h.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
					t.Errorf("reader %d: bytes at %d differ", g, off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after, _ := fs.Stats("shared")
	if got := after.ReadRequests - before.ReadRequests; got != readers*each {
		t.Fatalf("ledger counted %d read requests, %d were made", got, readers*each)
	}
	if after.ReaderTasks != 1 {
		t.Fatalf("ReaderTasks = %d, want the one view's task", after.ReaderTasks)
	}
}
