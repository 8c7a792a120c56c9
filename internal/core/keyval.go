package sion

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Key-value access mode: tagged records inside a task's logical file,
// mirroring SIONlib's sion_fwrite_key/sion_fread_key interface (added to
// SIONlib for exactly the multi-stream-per-task scenarios the paper's §6
// discusses for hybrid MPI/OpenMP codes: each thread writes under its own
// key into the task's chunks, and readers retrieve per-key streams).
//
// Wire format of one record: magic "SKV1", key u64, length u64, payload.

const keyRecMagic = "SKV1"
const keyRecHeader = 4 + 8 + 8

// KeyWriter writes tagged records into a logical task-local file.
type KeyWriter struct {
	f *File
}

// NewKeyWriter wraps a write-mode File.
func NewKeyWriter(f *File) (*KeyWriter, error) {
	if err := f.checkOpen(WriteMode); err != nil {
		return nil, err
	}
	return &KeyWriter{f: f}, nil
}

// WriteKey appends one record under the given key (sion_fwrite_key).
func (w *KeyWriter) WriteKey(key uint64, p []byte) error {
	hdr := make([]byte, keyRecHeader)
	copy(hdr, keyRecMagic)
	binary.LittleEndian.PutUint64(hdr[4:], key)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(p)))
	if _, err := w.f.Write(hdr); err != nil {
		return err
	}
	_, err := w.f.Write(p)
	return err
}

// keyRef locates one record's payload inside the logical stream.
type keyRef struct {
	off int64 // logical offset of the payload
	len int64
}

// LogicalReaderAt is the logical-stream surface KeyReader indexes: random
// access into one task's logical file plus its total size. *File implements
// it over chunks; internal/serve's Handle implements it over the shared
// block cache, so both serve the identical key-value record format.
type LogicalReaderAt interface {
	// ReadLogicalAt fills p from the logical stream starting at off,
	// returning io.EOF on short reads past the end.
	ReadLogicalAt(p []byte, off int64) (int, error)
	// LogicalSize returns the total recorded bytes of the logical stream.
	LogicalSize() int64
}

// KeyReader indexes the tagged records of one task's logical file and
// serves per-key reads (sion_fread_key with seeking).
type KeyReader struct {
	f     LogicalReaderAt
	index map[uint64][]keyRef
}

// NewKeyReader scans a read-mode File (from ParOpen or OpenRank) and
// builds the key index. The scan reads one record header at a time, which
// would issue one file request per record without buffering, so NewKeyReader
// arms the read-ahead stage (buffer.go) with an auto-tuned size unless the
// handle already serves reads from memory (collective read), carries a
// stage of its own, or was explicitly opted out with SetBufferSize(0);
// per-record Record/ReadKey calls then hit the same cache.
func NewKeyReader(f *File) (*KeyReader, error) {
	if err := f.checkOpen(ReadMode); err != nil {
		return nil, err
	}
	if f.collRead == nil && f.rstage == nil && !f.stagingOff {
		f.initStaging(BufferAuto)
	}
	return NewKeyReaderFrom(f)
}

// NewKeyReaderFrom builds a key index over any logical stream reader —
// the generalization of NewKeyReader that internal/serve uses to serve
// key lookups through its block cache. It applies no staging of its own;
// the reader is responsible for whatever request coalescing it wants.
func NewKeyReaderFrom(f LogicalReaderAt) (*KeyReader, error) {
	r := &KeyReader{f: f, index: make(map[uint64][]keyRef)}
	var off int64
	total := f.LogicalSize()
	hdr := make([]byte, keyRecHeader)
	for off < total {
		if _, err := f.ReadLogicalAt(hdr, off); err != nil {
			return nil, fmt.Errorf("sion: key index at offset %d: %w", off, err)
		}
		if string(hdr[:4]) != keyRecMagic {
			return nil, fmt.Errorf("%w: bad key-record magic at logical offset %d", ErrCorrupt, off)
		}
		key := binary.LittleEndian.Uint64(hdr[4:])
		n := int64(binary.LittleEndian.Uint64(hdr[12:]))
		if n < 0 || off+keyRecHeader+n > total {
			return nil, fmt.Errorf("%w: key record at %d overruns stream (%d bytes)", ErrCorrupt, off, n)
		}
		r.index[key] = append(r.index[key], keyRef{off: off + keyRecHeader, len: n})
		off += keyRecHeader + n
	}
	return r, nil
}

// On returns a KeyReader that shares r's index but reads its records
// through f, which must read the same logical stream. A server builds the
// index once and binds each request's reads to that request's handle.
func (r *KeyReader) On(f LogicalReaderAt) *KeyReader {
	return &KeyReader{f: f, index: r.index}
}

// Keys lists the distinct keys present, ascending.
func (r *KeyReader) Keys() []uint64 {
	out := make([]uint64, 0, len(r.index))
	for k := range r.index {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Record returns the i-th record written under key.
func (r *KeyReader) Record(key uint64, i int) ([]byte, error) {
	refs := r.index[key]
	if i < 0 || i >= len(refs) {
		return nil, fmt.Errorf("sion: key %d has %d records, requested %d", key, len(refs), i)
	}
	buf := make([]byte, refs[i].len)
	if _, err := r.f.ReadLogicalAt(buf, refs[i].off); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadKey returns the concatenation of all records under key, in write
// order (the per-key stream view).
func (r *KeyReader) ReadKey(key uint64) ([]byte, error) {
	refs := r.index[key]
	var total int64
	for _, ref := range refs {
		total += ref.len
	}
	out := make([]byte, 0, total)
	for i := range refs {
		rec, err := r.Record(key, i)
		if err != nil {
			return nil, err
		}
		out = append(out, rec...)
	}
	return out, nil
}

// --- Logical random access on File ------------------------------------------

// LogicalSize returns the total bytes recorded for this task across all
// its chunks (read mode).
func (f *File) LogicalSize() int64 {
	var total int64
	for _, b := range f.readBytes {
		total += b
	}
	return total
}

// ReadLogicalAt fills p from the task's logical stream starting at the
// given logical offset, spanning chunks as needed, without moving the
// sequential cursor. It returns io.EOF on short reads past the end.
func (f *File) ReadLogicalAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(ReadMode); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("sion: %s: negative logical offset", f.name)
	}
	// Locate the block containing off.
	block := 0
	for block < len(f.readBytes) && off >= f.readBytes[block] {
		off -= f.readBytes[block]
		block++
	}
	total := 0
	for len(p) > 0 && block < len(f.readBytes) {
		avail := f.readBytes[block] - off
		if avail == 0 {
			block++
			off = 0
			continue
		}
		n := int64(len(p))
		if n > avail {
			n = avail
		}
		if err := f.readChunkAt(p[:n], block, off); err != nil {
			return total, fmt.Errorf("sion: %s: logical read: %w", f.name, err)
		}
		p = p[n:]
		off += n
		total += int(n)
	}
	if len(p) > 0 {
		return total, io.EOF
	}
	return total, nil
}
