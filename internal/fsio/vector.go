package fsio

import "io"

// VectorReaderAt is the optional vectored read of a File: ReadvAt fills
// bufs, in order, with the bytes at [off, off+Σlen(bufs)), exactly as one
// ReadAt of the buffers laid end to end would — the same n (bytes filled,
// counted across the buffers), the same io.EOF at the end of the file, the
// same transient/permanent error contract — and may be called as
// concurrently as ReadAt. A backend implements it when it can scatter one
// request into many buffers without a copy (the OS backend: preadv(2) on
// Linux); callers go through the ReadvAt helper, which falls back to a
// copying ReadAt for every other backend.
type VectorReaderAt interface {
	ReadvAt(bufs [][]byte, off int64) (int, error)
}

// readvBufs holds the fallback's staging buffers.
var readvBufs BufPool

// ReadvAt fills bufs from off through f's own ReadvAt when it has one, and
// otherwise with one ReadAt into a pooled buffer that is scattered
// afterwards (or straight into the only buffer), so a backend without the
// method sees exactly the request a plain ReadAt of the concatenation
// makes: one call, the same offset and length.
func ReadvAt(f io.ReaderAt, bufs [][]byte, off int64) (int, error) {
	if v, ok := f.(VectorReaderAt); ok {
		return v.ReadvAt(bufs, off)
	}
	if len(bufs) == 1 {
		return f.ReadAt(bufs[0], off)
	}
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	buf := readvBufs.Get(total)
	n, err := f.ReadAt(buf, off)
	src := buf[:n]
	for _, b := range bufs {
		src = src[copy(b, src):]
	}
	readvBufs.Put(buf)
	return n, err
}
