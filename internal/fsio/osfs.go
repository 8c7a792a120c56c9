package fsio

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// OS adapts the real operating-system file system to the FileSystem
// interface. Paths are interpreted relative to Root (or absolute when Root
// is empty). It is what the examples and command-line utilities use.
type OS struct {
	// Root, when non-empty, is prepended to all relative paths.
	Root string
}

// NewOS returns an OS file system rooted at root ("" = process cwd).
func NewOS(root string) *OS { return &OS{Root: root} }

func (o *OS) path(name string) string {
	if o.Root == "" || filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(o.Root, name)
}

// Create implements FileSystem.
func (o *OS) Create(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, mapOSErr(err)
	}
	return (*osFile)(f), nil
}

// Open implements FileSystem.
func (o *OS) Open(name string) (File, error) {
	f, err := os.Open(o.path(name))
	if err != nil {
		return nil, mapOSErr(err)
	}
	return (*osFile)(f), nil
}

// OpenRW implements FileSystem.
func (o *OS) OpenRW(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_RDWR, 0)
	if err != nil {
		return nil, mapOSErr(err)
	}
	return (*osFile)(f), nil
}

// Stat implements FileSystem.
func (o *OS) Stat(name string) (FileInfo, error) {
	st, err := os.Stat(o.path(name))
	if err != nil {
		return FileInfo{}, mapOSErr(err)
	}
	return FileInfo{Name: name, Size: st.Size()}, nil
}

// Remove implements FileSystem.
func (o *OS) Remove(name string) error { return mapOSErr(os.Remove(o.path(name))) }

// BlockSize reports st_blksize for the directory containing name,
// mirroring SIONlib's fstat-based block-size autodetection. Because the
// stat targets the directory, the call works identically whether or not
// name itself exists yet (the common case: sizing a multifile about to
// be created); a missing directory, or a platform without st_blksize
// (osfs_other.go), falls back to 4096.
func (o *OS) BlockSize(name string) int64 {
	if n := dirBlockSize(filepath.Dir(o.path(name))); n > 0 {
		return n
	}
	return 4096
}

func mapOSErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return errJoin(ErrNotExist, err)
	case errors.Is(err, fs.ErrExist):
		return errJoin(ErrExist, err)
	case errors.Is(err, syscall.ENOSPC), errors.Is(err, syscall.EDQUOT):
		return errJoin(ErrQuota, err)
	case errors.Is(err, syscall.EAGAIN), errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EBUSY), errors.Is(err, syscall.ETIMEDOUT),
		errors.Is(err, syscall.EIO):
		return errJoin(ErrTransient, err)
	default:
		return err
	}
}

func errJoin(sentinel, err error) error { return joinedErr{sentinel, err} }

type joinedErr struct{ sentinel, err error }

func (j joinedErr) Error() string { return j.err.Error() }
func (j joinedErr) Unwrap() []error {
	return []error{j.sentinel, j.err}
}

// osFile adapts *os.File to the File interface.
type osFile os.File

func (f *osFile) std() *os.File { return (*os.File)(f) }

// Data-path errors run through mapOSErr too, so the FileSystem error
// contract (transient errno conditions wrap ErrTransient) holds for reads,
// writes, and syncs, not just for the namespace operations. io.EOF is
// passed through untouched: short reads are part of the ReadAt contract,
// not a failure.
func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.std().ReadAt(p, off)
	if err == io.EOF {
		return n, err
	}
	return n, mapOSErr(err)
}

func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.std().WriteAt(p, off)
	return n, mapOSErr(err)
}

func (f *osFile) Close() error              { return mapOSErr(f.std().Close()) }
func (f *osFile) Truncate(size int64) error { return mapOSErr(f.std().Truncate(size)) }
func (f *osFile) Sync() error               { return mapOSErr(f.std().Sync()) }

func (f *osFile) Size() (int64, error) {
	st, err := f.std().Stat()
	if err != nil {
		return 0, mapOSErr(err)
	}
	return st.Size(), nil
}

// zeroBuf is a shared read-only block of zeros for WriteZeroAt.
var zeroBuf [1 << 20]byte

// WriteZeroAt writes n real zero bytes at off.
func (f *osFile) WriteZeroAt(n, off int64) error {
	for n > 0 {
		c := n
		if c > int64(len(zeroBuf)) {
			c = int64(len(zeroBuf))
		}
		w, err := f.std().WriteAt(zeroBuf[:c], off)
		if err != nil {
			return mapOSErr(err)
		}
		n -= int64(w)
		off += int64(w)
	}
	return nil
}

// ReadDiscardAt reads and discards n bytes at off.
func (f *osFile) ReadDiscardAt(n, off int64) (int64, error) {
	var buf [1 << 16]byte
	var total int64
	for n > 0 {
		c := n
		if c > int64(len(buf)) {
			c = int64(len(buf))
		}
		r, err := f.std().ReadAt(buf[:c], off)
		total += int64(r)
		n -= int64(r)
		off += int64(r)
		// os.File.ReadAt errs whenever it reads less than the c > 0 bytes
		// asked for, so the loop ends at EOF or on an error.
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, mapOSErr(err)
		}
	}
	return total, nil
}
