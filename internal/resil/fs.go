package resil

import (
	"repro/internal/fsio"
)

// Wrap decorates inner so every FileSystem and File operation runs under
// the retry budget. Call sites in core and the tools keep their plain
// fsio code; resilience is layered on at mount time, which is exactly the
// decorator split the flaky lab uses on the injection side. Close is the
// one exempt operation: the handle is unusable after a failed Close either
// way, and retrying a close can double-release backend state.
//
// All retried operations are idempotent per the fsio.FileSystem contract,
// so a retry after an ambiguous failure (error after partial effect)
// converges to the same state.
func Wrap(inner fsio.FileSystem, b Budget, ctrs *Counters) *FS {
	return &FS{inner: inner, b: b, ctrs: ctrs}
}

// FS is a resilient fsio.FileSystem decorator; see Wrap.
type FS struct {
	inner fsio.FileSystem
	b     Budget
	ctrs  *Counters
}

var _ fsio.FileSystem = (*FS)(nil)

// Counters returns the counter set this FS reports into (may be nil).
func (r *FS) Counters() *Counters { return r.ctrs }

// Unwrap returns the decorated file system.
func (r *FS) Unwrap() fsio.FileSystem { return r.inner }

func (r *FS) file(fh fsio.File) fsio.File { return &file{inner: fh, fs: r} }

// Create implements fsio.FileSystem.
func (r *FS) Create(name string) (fsio.File, error) {
	var fh fsio.File
	err := Do(r.b, r.ctrs, func() error {
		var e error
		fh, e = r.inner.Create(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return r.file(fh), nil
}

// Open implements fsio.FileSystem.
func (r *FS) Open(name string) (fsio.File, error) {
	var fh fsio.File
	err := Do(r.b, r.ctrs, func() error {
		var e error
		fh, e = r.inner.Open(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return r.file(fh), nil
}

// OpenRW implements fsio.FileSystem.
func (r *FS) OpenRW(name string) (fsio.File, error) {
	var fh fsio.File
	err := Do(r.b, r.ctrs, func() error {
		var e error
		fh, e = r.inner.OpenRW(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return r.file(fh), nil
}

// Stat implements fsio.FileSystem.
func (r *FS) Stat(name string) (fsio.FileInfo, error) {
	var fi fsio.FileInfo
	err := Do(r.b, r.ctrs, func() error {
		var e error
		fi, e = r.inner.Stat(name)
		return e
	})
	return fi, err
}

// Remove implements fsio.FileSystem.
func (r *FS) Remove(name string) error {
	return Do(r.b, r.ctrs, func() error { return r.inner.Remove(name) })
}

// BlockSize implements fsio.FileSystem (no error path, no retries).
func (r *FS) BlockSize(name string) int64 { return r.inner.BlockSize(name) }

// file is the handle-side decorator.
type file struct {
	inner fsio.File
	fs    *FS
}

var _ fsio.File = (*file)(nil)

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := Do(f.fs.b, f.fs.ctrs, func() error {
		var e error
		n, e = f.inner.ReadAt(p, off)
		return e
	})
	return n, err
}

// ReadvAt keeps the backend's vectored read visible through the decorator:
// each call is one retried operation, like ReadAt.
func (f *file) ReadvAt(bufs [][]byte, off int64) (int, error) {
	var n int
	err := Do(f.fs.b, f.fs.ctrs, func() error {
		var e error
		n, e = fsio.ReadvAt(f.inner, bufs, off)
		return e
	})
	return n, err
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := Do(f.fs.b, f.fs.ctrs, func() error {
		var e error
		n, e = f.inner.WriteAt(p, off)
		return e
	})
	return n, err
}

func (f *file) WriteZeroAt(n, off int64) error {
	return Do(f.fs.b, f.fs.ctrs, func() error { return f.inner.WriteZeroAt(n, off) })
}

func (f *file) ReadDiscardAt(n, off int64) (int64, error) {
	var got int64
	err := Do(f.fs.b, f.fs.ctrs, func() error {
		var e error
		got, e = f.inner.ReadDiscardAt(n, off)
		return e
	})
	return got, err
}

func (f *file) Size() (int64, error) {
	var sz int64
	err := Do(f.fs.b, f.fs.ctrs, func() error {
		var e error
		sz, e = f.inner.Size()
		return e
	})
	return sz, err
}

func (f *file) Truncate(size int64) error {
	return Do(f.fs.b, f.fs.ctrs, func() error { return f.inner.Truncate(size) })
}

func (f *file) Sync() error {
	return Do(f.fs.b, f.fs.ctrs, func() error { return f.inner.Sync() })
}

// Close is never retried; see Wrap.
func (f *file) Close() error { return f.inner.Close() }
