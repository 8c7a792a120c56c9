// Package fsio defines the file-system abstraction the SION library is
// written against, so the identical library code runs both on the real
// operating-system file system (see OS) and on the simulated parallel file
// systems of internal/simfs used to reproduce the paper's experiments.
package fsio

import (
	"errors"
	"io"
)

// ErrNotExist is returned when a file does not exist. Backends wrap their
// native not-exist errors so callers can test with errors.Is.
var ErrNotExist = errors.New("fsio: file does not exist")

// ErrExist is returned by Create when exclusive creation fails.
var ErrExist = errors.New("fsio: file already exists")

// ErrQuota is returned by write operations when a quota or space limit is
// exceeded (used by simfs failure injection; maps from ENOSPC on the OS).
var ErrQuota = errors.New("fsio: quota exceeded")

// ErrTransient marks an error as a transient backend condition: the
// operation failed because the file system misbehaved under load (an I/O
// timeout, EAGAIN/EINTR, a busy server, an injected flaky fault), not
// because the request was wrong. Backends wrap such failures so callers
// can test with errors.Is.
var ErrTransient = errors.New("fsio: transient backend failure")

// FileSystem is the minimal parallel-file-system surface SIONlib needs:
// create/open/stat/remove plus the file-system block size, which SIONlib
// auto-detects to align chunks (paper §3.1: "the block size of the target
// file system is determined automatically via the fstat() system call").
//
// Error contract (transient vs permanent): an operation that fails for a
// reason that may clear on its own returns an error wrapping ErrTransient.
// Every operation on this surface is idempotent — positional reads and
// writes, create/open/stat/remove, sync — so a caller may safely re-issue
// an attempt that failed transiently; internal/resil builds its retry,
// backoff-budget, and circuit-breaker machinery on exactly this property.
// An error that does not wrap ErrTransient is permanent for the attempted
// operation: retrying without changing the request is pointless
// (ErrNotExist, ErrExist, ErrQuota, corrupt data detected by a caller's
// parser, closed or removed handles). io.EOF from short reads is likewise
// not transient. The OS backend maps EAGAIN/EINTR/EBUSY/ETIMEDOUT/EIO to
// ErrTransient (an EIO from a parallel file system under load is the
// paper's canonical recoverable fault); simfs injects seeded transient
// faults through the same sentinel (see simfs flaky-fault injection).
type FileSystem interface {
	// Create creates (or truncates) the named file for read/write access.
	Create(name string) (File, error)
	// Open opens the named file. Write access is backend-defined; SIONlib
	// only writes to files it created, except when updating chunk headers,
	// for which it uses OpenRW.
	Open(name string) (File, error)
	// OpenRW opens an existing file for reading and writing.
	OpenRW(name string) (File, error)
	// Stat reports metadata for the named file.
	Stat(name string) (FileInfo, error)
	// Remove deletes the named file.
	Remove(name string) error
	// BlockSize reports the file-system block size governing the directory
	// that would contain name (fstat's st_blksize equivalent). The call
	// must work for names that do not exist yet — callers size a multifile
	// before creating it — and must never fail: backends answer from the
	// enclosing directory or from their configuration, falling back to a
	// sane default. Backends with multipart write semantics
	// (Capabilities.PartSizeFloor > 0) report the part size here, so
	// block-aligned chunk geometry is automatically part-aligned.
	BlockSize(name string) int64
}

// Backends may additionally implement CapabilityReporter (caps.go) to
// report the four geometry numbers the layers above tune from; Intercept
// implements Unwrapper so the descriptor survives wrapping. Use
// CapabilitiesOf to query a possibly-decorated FileSystem.

// FileInfo is the subset of file metadata SIONlib consumes.
type FileInfo struct {
	Name string
	Size int64
}

// File is a random-access file handle.
//
// Concurrency: ReadAt and ReadDiscardAt may be called from any number of
// goroutines at once on one handle (what io.ReaderAt promises) as long as
// no write, truncate or close of the file is in progress; internal/serve
// relies on it — every reader that misses the cache reads the backend on
// its own goroutine. Everything else on a handle belongs to one goroutine
// at a time unless a backend says otherwise.
//
// A File may also implement VectorReaderAt (vector.go): ReadvAt scatters
// one read into several buffers, under ReadAt's error and concurrency
// contract, as if they were one buffer laid end to end. The OS backend
// does so with preadv(2) on Linux, and Intercept, under the metering
// (Instrument), retrying (internal/resil) and fault-injecting
// (simfs.Flaky) decorators, keeps it exactly where the handle underneath
// has it; callers use the ReadvAt helper, which turns the read into one
// copying ReadAt on every other backend.
//
// In addition to byte-accurate I/O, File carries two metered "synthetic"
// operations used by the at-scale benchmark harness: WriteZeroAt and
// ReadDiscardAt behave exactly like WriteAt/ReadAt of n bytes for cost and
// extent accounting, but the payload is all zeros and never materialized by
// the simulated backend, letting terabyte-scale experiments run in memory.
// The OS backend implements them faithfully with real zero bytes.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer

	// WriteZeroAt writes n synthetic zero bytes at off.
	WriteZeroAt(n, off int64) error
	// ReadDiscardAt reads and discards n bytes at off. It returns the
	// number of bytes that existed (reads past EOF are short, like ReadAt).
	ReadDiscardAt(n, off int64) (int64, error)

	// Size reports the current file size.
	Size() (int64, error)
	// Truncate changes the file size.
	Truncate(size int64) error
	// Sync makes the file's written data durable (no-op where
	// meaningless). Backends that model crash consistency (simfs with
	// volatile writes) guarantee that data written before a successful
	// Sync survives a crash, and order Syncs of different files: the
	// watermark commit protocol (internal/core) relies on "data sync
	// completed before commit record written" to keep committed bytes
	// untorn.
	Sync() error
}
