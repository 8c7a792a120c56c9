package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsio"
)

// pageCacheFS is the backend every layer is handed: fsio.OS, except that
// Sync does not reach the disk. core syncs each physical file when a dump
// is closed (rank 0, whatever the options). On this box that one call cost
// more than the rest of a dump (25 of the 43 ms of a 64 MiB one), stalled
// fivefold at random, and, by giving the files blocks on disk, made every
// later delete a discard that slowed whatever ran next. That is the
// sandbox's virtual disk, not the program; the benchmark is about the
// program on the page cache, so it counts the call and drops it.
type pageCacheFS struct {
	*fsio.OS
	syncs *atomic.Int64 // Sync calls dropped
}

func newPageCacheFS(dir string, syncs *atomic.Int64) *pageCacheFS {
	return &pageCacheFS{OS: fsio.NewOS(dir), syncs: syncs}
}

func (p *pageCacheFS) Create(name string) (fsio.File, error) { return p.wrap(p.OS.Create(name)) }
func (p *pageCacheFS) OpenRW(name string) (fsio.File, error) { return p.wrap(p.OS.OpenRW(name)) }

func (p *pageCacheFS) wrap(f fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	return &unsyncedFile{File: f, fs: p}, nil
}

type unsyncedFile struct {
	fsio.File
	fs *pageCacheFS
}

func (f *unsyncedFile) Sync() error {
	f.fs.syncs.Add(1)
	return nil
}

// Op classes of the timing decorator.
const (
	opRead = iota
	opWrite
	opMeta // Create/Open/OpenRW/Stat/Remove and the handle's Size/Truncate/Sync/Close
	opClasses
)

// fsCounters accumulates what the layers above asked of fsio during one
// measured scope. It is shared by every timedFS bound to that scope (one
// per rank), so all methods are safe for concurrent use.
type fsCounters struct {
	calls, bytes, busyNs [opClasses]atomic.Int64
	unalignedWrites      atomic.Int64

	mu         sync.Mutex
	writeSizes []float64
}

// timedFS is the benchmark's view of the fsio layer from outside: a
// pass-through fsio.FileSystem around the real backend that counts and
// times every op and, in a traced run, records one span per op. It
// implements Unwrap, so fsio.CapabilitiesOf sees the backend unchanged,
// and forwards BlockSize, so the layers above compute the same geometry
// and issue the same ops as without it.
type timedFS struct {
	inner fsio.FileSystem
	c     *fsCounters
	blk   int64 // FS block size, for the alignment count

	// Span recording (both nil in counting-only use; bg can be switched
	// while the file system is in use). An op issued on the
	// goroutine that owns rec nests under rec's open span; an op issued on
	// any other goroutine (async flusher, serve fetcher) goes to bg, whose
	// spans hang off the iteration root.
	rec *recorder
	bg  atomic.Pointer[recorder]
}

var (
	_ fsio.FileSystem = (*timedFS)(nil)
	_ fsio.Unwrapper  = (*timedFS)(nil)
)

func (t *timedFS) Unwrap() fsio.FileSystem     { return t.inner }
func (t *timedFS) BlockSize(name string) int64 { return t.inner.BlockSize(name) }

func (t *timedFS) done(class int, name string, start time.Time, n int64) {
	el := time.Since(start)
	t.c.calls[class].Add(1)
	t.c.bytes[class].Add(n)
	t.c.busyNs[class].Add(int64(el))
	r := t.bg.Load()
	if t.rec != nil && goid() == t.rec.goid {
		r = t.rec
	}
	if r != nil {
		s := int64(start.Sub(r.t.epoch))
		r.add("fsio", name, s, s+int64(el))
	}
}

func (t *timedFS) open(name string, open func(string) (fsio.File, error), op string) (fsio.File, error) {
	start := time.Now()
	f, err := open(name)
	t.done(opMeta, op, start, 0)
	if err != nil {
		return nil, err
	}
	return &timedFile{inner: f, fs: t}, nil
}

func (t *timedFS) Create(name string) (fsio.File, error) {
	return t.open(name, t.inner.Create, "Create")
}
func (t *timedFS) Open(name string) (fsio.File, error) { return t.open(name, t.inner.Open, "Open") }
func (t *timedFS) OpenRW(name string) (fsio.File, error) {
	return t.open(name, t.inner.OpenRW, "OpenRW")
}

func (t *timedFS) Stat(name string) (fsio.FileInfo, error) {
	start := time.Now()
	fi, err := t.inner.Stat(name)
	t.done(opMeta, "Stat", start, 0)
	return fi, err
}

func (t *timedFS) Remove(name string) error {
	start := time.Now()
	err := t.inner.Remove(name)
	t.done(opMeta, "Remove", start, 0)
	return err
}

type timedFile struct {
	inner fsio.File
	fs    *timedFS
}

func (f *timedFile) noteWrite(n, off int64) {
	if off%f.fs.blk != 0 {
		f.fs.c.unalignedWrites.Add(1)
	}
	f.fs.c.mu.Lock()
	f.fs.c.writeSizes = append(f.fs.c.writeSizes, float64(n))
	f.fs.c.mu.Unlock()
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.ReadAt(p, off)
	f.fs.done(opRead, "ReadAt", start, int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.fs.done(opWrite, "WriteAt", start, int64(n))
	f.noteWrite(int64(n), off)
	return n, err
}

func (f *timedFile) WriteZeroAt(n, off int64) error {
	start := time.Now()
	err := f.inner.WriteZeroAt(n, off)
	f.fs.done(opWrite, "WriteZeroAt", start, n)
	f.noteWrite(n, off)
	return err
}

func (f *timedFile) ReadDiscardAt(n, off int64) (int64, error) {
	start := time.Now()
	got, err := f.inner.ReadDiscardAt(n, off)
	f.fs.done(opRead, "ReadDiscardAt", start, got)
	return got, err
}

func (f *timedFile) Size() (int64, error) {
	start := time.Now()
	n, err := f.inner.Size()
	f.fs.done(opMeta, "Size", start, 0)
	return n, err
}

func (f *timedFile) Truncate(size int64) error {
	start := time.Now()
	err := f.inner.Truncate(size)
	f.fs.done(opMeta, "Truncate", start, 0)
	return err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	f.fs.done(opMeta, "Sync", start, 0)
	return err
}

func (f *timedFile) Close() error {
	start := time.Now()
	err := f.inner.Close()
	f.fs.done(opMeta, "Close", start, 0)
	return err
}
