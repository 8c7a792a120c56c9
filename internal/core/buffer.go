package sion

import (
	"fmt"
	"io"

	"repro/internal/fsio"
)

// Buffered staging I/O for the direct path (write-behind and read-ahead),
// the client-side analog of the paper's central lever: the multifile
// layout already guarantees that chunks are FS-block-aligned (§3.1,
// Table 1), but a small-record workload in direct mode still turns every
// application Write/Read into one file-system request. The staging layer
// coalesces those records in user space — exactly the aggregation that
// client-side buffering studies (Zhang et al., arXiv:0901.0134; TASIO,
// arXiv:2011.13823) show recovers bandwidth independent of collective
// mode — and flushes few, large, block-aligned extents instead:
//
//   - Write-behind: Write appends to a staging buffer; the buffer is
//     flushed in FS-block-aligned extents when it fills, and completely at
//     chunk boundaries, Flush, and Close. A flush triggered by a full
//     buffer retains the partial tail block so that the next flush starts
//     on an FS block boundary again.
//   - Read-ahead coalesces the reads of small-record streams, and only
//     those. What the stage holds is served from it. A miss is read
//     straight into the caller's slice (one copy fewer than through the
//     stage), leaving the stage as it was, when it is an efficient
//     request as it stands — at least DirectReadBytes, a few FS blocks
//     or the request size the backend's capability descriptor prefers —
//     or when the stream it belongs to is: the Read/ReadLogicalAt calls
//     since the last Seek or releaseStage average at least half of
//     DirectReadBytes. Any other miss fetches up to one whole chunk
//     region (the remaining used bytes of the current chunk, capped at
//     the buffer size) in a single request, and the calls that follow
//     are served from memory. So a stream of mixed 1–64 KiB records reads
//     each byte once, and a stream of small records keeps its few large
//     requests. Seek never invalidates the cache — read-mode data is
//     immutable, so the cache stays valid wherever the cursor moves.
//
// The cursor state (File.curBlock, File.pos, blockBytes bookkeeping)
// always reflects the logical position including staged bytes, so
// EnsureFreeSpace, BytesAvailInChunk, EOF, and Seek keep their exact
// unbuffered semantics, and a multifile written through the staging layer
// is byte-identical to one written unbuffered. A stage takes its buffer
// from the pool on first use; the serial cursor gives it back when it
// leaves a task (File.releaseStage), so a serial writer or reader holds one
// buffer at a time however many tasks it visits.
//
// Staging buffers are recycled through one pool shared with the
// collective frame path (collective.go), so a job alternating between
// buffered-direct and collective handles reuses the same backing arrays.
var stageBufs fsio.BufPool

// BufferAuto selects the staging-buffer size automatically
// (Options.BufferSize = -1): one chunk capacity, rounded up to a multiple
// of the FS block size and capped at bufferAutoCap.
const BufferAuto = -1

// BufferOff disables staging unconditionally (Options.BufferSize = -2):
// unlike 0, it is not upgraded to BufferAuto on backends whose
// capability descriptor declares a multipart part-size floor, and it
// keeps NewKeyReader from arming its read-ahead. The POSIX-tuned-geometry
// arms of the backend experiments use it to show what un-tuned defaults
// cost on an object store.
const BufferOff = -2

// bufferAutoCap bounds the auto-sized staging buffer, mirroring
// asyncFlushCap on the collective path: beyond a few MiB per task the
// request-count reduction has long saturated and the buffer only costs
// memory.
const bufferAutoCap = 4 << 20

// resolveBufferSize turns a checked BufferSize (bufferOption) into an
// effective staging size for a chunk of the given capacity (0 =
// unbuffered).
func resolveBufferSize(opt, capacity, fsblk int64) int64 {
	if opt == BufferAuto {
		// capacity is positive, so the aligned size is at least one block.
		return alignUp(min(capacity, bufferAutoCap), fsblk)
	}
	return max(opt, 0)
}

// writeStage is one write-behind run: buf holds the bytes bound for
// [off, off+len(buf)) of fh. It knows files and offsets only; the File
// that owns it keeps the logical cursor and tells the stage where each
// write lands and how much of the chunk is left.
type writeStage struct {
	name  string // multifile name, for error messages
	size  int64
	fsblk int64
	fh    fsio.File
	off   int64
	buf   []byte
}

func newWriteStage(name string, size, fsblk int64) *writeStage {
	return &writeStage{name: name, size: size, fsblk: fsblk}
}

// write takes as much of p, bound for offset abs of fh, as the stage has
// room for and the chunk has space (avail bytes from abs), and returns how
// much that was. A write that does not continue the staged run flushes
// that run first. With nothing staged, a write of at least one stage is
// already a big request and goes to the file directly, sparing the copy.
// The run is flushed whole when it reaches the end of the chunk (staged
// bytes must not cross into the next block's distant file offset) and down
// to the last FS block boundary when the stage is full. On an error from
// one of those flushes the returned bytes are staged all the same.
func (ws *writeStage) write(fh fsio.File, abs int64, p []byte, avail int64) (int, error) {
	if len(ws.buf) > 0 && abs != ws.off+int64(len(ws.buf)) {
		if err := ws.flush(); err != nil {
			return 0, err
		}
	}
	if int64(len(p)) > avail {
		p = p[:avail]
	}
	if len(ws.buf) == 0 {
		if int64(len(p)) >= ws.size {
			if _, err := fh.WriteAt(p, abs); err != nil {
				return 0, fmt.Errorf("sion: %s: staged write: %w", ws.name, err)
			}
			return len(p), nil
		}
		if ws.buf == nil {
			ws.buf = stageBufs.Get(ws.size)[:0]
		}
		ws.fh, ws.off = fh, abs
	}
	if room := ws.size - int64(len(ws.buf)); int64(len(p)) > room {
		p = p[:room]
	}
	ws.buf = append(ws.buf, p...)
	switch {
	case int64(len(p)) == avail:
		return len(p), ws.flush()
	case int64(len(ws.buf)) >= ws.size:
		return len(p), ws.flushAligned()
	}
	return len(p), nil
}

// flush writes every staged byte (chunk end, Flush, Close, a cursor that
// moves, or a bypass such as WriteSynthetic). A nil stage has nothing to
// flush.
func (ws *writeStage) flush() error {
	if ws == nil {
		return nil
	}
	return ws.flushPrefix(len(ws.buf))
}

// flushAligned writes the staged prefix up to the last FS block boundary,
// keeping the partial tail block staged so the next flush begins
// block-aligned. When the whole run fits inside one block (or the region
// is misaligned by construction, e.g. chunk headers), it degrades to a
// full flush.
func (ws *writeStage) flushAligned() error {
	end := ws.off + int64(len(ws.buf))
	n := end - end%ws.fsblk - ws.off
	if n <= 0 {
		n = int64(len(ws.buf))
	}
	return ws.flushPrefix(int(n))
}

// flushPrefix writes buf[:n] at off and moves what is left to the front.
func (ws *writeStage) flushPrefix(n int) error {
	if n == 0 {
		return nil
	}
	if _, err := ws.fh.WriteAt(ws.buf[:n], ws.off); err != nil {
		return fmt.Errorf("sion: %s: staged write: %w", ws.name, err)
	}
	ws.off += int64(n)
	ws.buf = ws.buf[:copy(ws.buf, ws.buf[n:])]
	return nil
}

// release returns the stage's buffer, flushed or not, to the pool; the next
// staged write takes one again.
func (ws *writeStage) release() {
	if ws != nil {
		stageBufs.Put(ws.buf)
		ws.buf = nil
	}
}

// readStage caches one contiguous region of one chunk's used bytes:
// chunk-relative range [start, start+len(data)) of block `block`. reads
// and asked count the Read/ReadLogicalAt calls of the stream since the
// last Seek or releaseStage and the bytes they asked for.
type readStage struct {
	size         int64
	block        int
	start        int64
	data         []byte
	reads, asked int64
}

// note counts one Read or ReadLogicalAt call of n bytes; a nil stage
// counts nothing.
func (rs *readStage) note(n int) {
	if rs != nil {
		rs.reads++
		rs.asked += int64(n)
	}
}

// restart begins a new stream: the next call's mean is its own size.
func (rs *readStage) restart() {
	if rs != nil {
		rs.reads, rs.asked = 0, 0
	}
}

// covers reports whether the cached region contains [pos, pos+n) of block b.
func (rs *readStage) covers(b int, pos, n int64) bool {
	return b == rs.block && pos >= rs.start && pos+n <= rs.start+int64(len(rs.data))
}

// --- File (direct mode) ------------------------------------------------------

// buffered reports whether the direct write path of f stages data.
// Collective handles route data through frames (which already coalesce at
// the collector), so the stage is inert there.
func (f *File) buffered() bool { return f.wstage != nil && f.coll == nil }

// initStaging arms the staging layer on a freshly opened handle, from a
// checked BufferSize (bufferOption).
func (f *File) initStaging(bufSize int64) {
	f.stagingOff = bufSize == BufferOff
	n := resolveBufferSize(bufSize, f.geo.capacity(geoIndex), f.fsblk)
	if n <= 0 {
		return
	}
	if f.mode == WriteMode {
		if f.coll != nil {
			return // collective write: members never touch the file
		}
		f.wstage = newWriteStage(f.name, n, f.fsblk)
		return
	}
	if f.collRead != nil {
		return // collective read: the stream is already in memory
	}
	f.rstage = &readStage{size: n, block: -1}
}

// SetBufferSize restages an open handle, for one opened without options
// (OpenRank). It takes the values of Options.BufferSize, 0 resolved
// against the handle's own backend. On a write handle any staged bytes
// are flushed first. Collective handles ignore the call (their data path
// does not issue per-record requests to begin with).
func (f *File) SetBufferSize(n int64) error {
	n, err := bufferOption(n, fsio.CapabilitiesOf(f.fsys))
	if err != nil {
		return fmt.Errorf("sion: %s: %w", f.name, err)
	}
	if f.closed {
		return fmt.Errorf("sion: %s: handle is closed", f.name)
	}
	if err := f.wstage.flush(); err != nil {
		return err
	}
	f.dropStaging()
	f.initStaging(n)
	return nil
}

// releaseStage returns the stage buffers to the pool while keeping the
// stages armed: staged writes land first, and the next staged write or
// read miss takes a buffer again. The serial cursor calls this when it
// leaves a rank, so a serial writer or a global-view scan over many tasks
// holds at most one staging buffer at a time.
func (f *File) releaseStage() error {
	if err := f.wstage.flush(); err != nil {
		return err
	}
	f.wstage.release()
	if f.rstage != nil {
		stageBufs.Put(f.rstage.data)
		f.rstage.data = nil
		f.rstage.block = -1
		f.rstage.restart()
	}
	return nil
}

// dropStaging releases the stage buffers back to the shared pool.
func (f *File) dropStaging() {
	f.wstage.release()
	f.wstage = nil
	if f.rstage != nil {
		stageBufs.Put(f.rstage.data)
		f.rstage = nil
	}
}

// stagedWrite is the write-behind Write path: the stage takes the bytes,
// the handle keeps the cursor.
func (f *File) stagedWrite(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		capacity := f.ChunkCapacity()
		if f.pos == capacity {
			// advanceBlock flushes the stage before moving the cursor.
			if err := f.advanceBlock(); err != nil {
				return total, err
			}
		}
		n, err := f.wstage.write(f.fh, f.dataOff()+f.pos, p, capacity-f.pos)
		f.pos += int64(n)
		f.notePos()
		total += n
		p = p[n:]
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// directReadBlocks is where reading a record where it is going overtakes
// fetching it into the stage and copying it out: one more pread (≈ 1 µs
// on a cached file) against a second pass through memory (≈ 0.1 µs/KiB).
// BenchmarkReadBack/crossover on fsio.OS with 4 KiB blocks (2 vCPUs,
// medians of 8 rounds) has staged ahead by about a quarter at 1 block and
// a seventh at 2, the two within 2 % at 4, and direct ahead by about a
// tenth at 8 and 16. The stream half of the rule (stagedReadAt) sits at 2
// blocks, where a stream of records all that size still stages faster,
// for mixed streams: serve-cold's 1–64 KiB records average 15 KiB and
// carry 76 % of their bytes in records of 4 blocks or more, each of which
// staging would copy twice (BenchmarkReadBack/mixed). Counted in
// blocks because a request is only efficient at the FS's own granularity:
// on a parallel FS with 1–4 MiB blocks (paper Table 1) the rule never
// fires below the stage size.
const directReadBlocks = 4

// DirectReadBytes is the size from which a read that misses the stage is
// an efficient request on its own: what the backend says it is
// (PreferredRequestBytes — object stores price every request), else
// directReadBlocks FS blocks. It is core's read-size rule: the read stage
// reads a miss this large straight into the caller's slice.
func DirectReadBytes(caps fsio.Capabilities, fsblk int64) int64 {
	if caps.PreferredRequestBytes > 0 {
		return caps.PreferredRequestBytes
	}
	return directReadBlocks * fsblk
}

// stagedReadAt serves [pos, pos+len(p)) of block b's data area. What the
// stage covers is copied out of it. A miss of at least directRead bytes
// (or a whole stage), or one in a stream whose calls average at least
// half of directRead, is read straight into p and leaves the stage as it
// was; any other fetches up to one whole chunk region (the block's
// remaining used bytes, capped at the stage size) in one request and is
// served from that. Callers clamp p to the block's recorded bytes, so the
// fetch always covers the request, and note the call first, so the mean
// includes it.
func (f *File) stagedReadAt(p []byte, block int, pos int64) error {
	rs := f.rstage
	if rs.covers(block, pos, int64(len(p))) {
		copy(p, rs.data[pos-rs.start:])
		return nil
	}
	off := f.geo.dataOff(geoIndex, block) + pos
	if int64(len(p)) >= min(f.directRead, rs.size) || 2*rs.asked >= rs.reads*f.directRead {
		return readAtZeroFill(f.fh, p, off)
	}
	fetch := min(rs.size, f.readBytes[block]-pos)
	if int64(cap(rs.data)) < fetch {
		stageBufs.Put(rs.data)
		rs.data = stageBufs.Get(fetch)
	}
	rs.data = rs.data[:fetch]
	rs.block, rs.start = block, pos
	if err := readAtZeroFill(f.fh, rs.data, off); err != nil {
		rs.block, rs.data = -1, rs.data[:0]
		return err
	}
	copy(p, rs.data)
	return nil
}

// readAtZeroFill reads len(p) bytes at off. Bytes the backend did not
// deliver (a sparse or truncated tail) read as zeros, never as whatever p
// held before — p is a recycled buffer or the caller's own; any error but
// io.EOF is returned as it is.
func readAtZeroFill(fh fsio.File, p []byte, off int64) error {
	n, err := fh.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return err
	}
	clear(p[n:])
	return nil
}
