package sion

import (
	"fmt"
	"io"
	"sync"

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
//   - Read-ahead coalesces small reads, and only those. What the stage
//     holds is served from it. A miss smaller than directReadBytes — a
//     few FS blocks, or the request size the backend's capability
//     descriptor prefers — fetches up to one whole chunk region (the
//     remaining used bytes of the current chunk, capped at the buffer
//     size) in a single request, and the Read/ReadLogicalAt calls that
//     follow are served from memory. A miss at or above that size is an
//     efficient request as it stands: it is read straight into the
//     caller's slice (one copy fewer than through the stage) and the
//     stage keeps what it held. Seek never invalidates the cache —
//     read-mode data is immutable, so the cache stays valid wherever the
//     cursor moves.
//
// The cursor state (File.pos, SerialFile.curPos, blockBytes bookkeeping)
// always reflects the logical position including staged bytes, so
// EnsureFreeSpace, BytesAvailInChunk, EOF, and Seek keep their exact
// unbuffered semantics, and a multifile written through the staging layer
// is byte-identical to one written unbuffered.
//
// Staging buffers are recycled through a sync.Pool shared with the
// collective frame path (collective.go), so a job alternating between
// buffered-direct and collective handles reuses the same backing arrays.

// stagePool recycles staging buffers across direct-path stages and
// collective frames. Entries are *[]byte with length 0 and whatever
// capacity their previous user grew them to.
var stagePool = sync.Pool{New: func() any { return new([]byte) }}

// getStageBuf returns a zero-length buffer with capacity ≥ n.
func getStageBuf(n int64) []byte {
	b := *stagePool.Get().(*[]byte)
	if int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// putStageBuf returns a buffer to the pool for reuse.
func putStageBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	stagePool.Put(&b)
}

// BufferAuto selects the staging-buffer size automatically
// (Options.BufferSize = -1): one chunk capacity, rounded up to a multiple
// of the FS block size and capped at bufferAutoCap.
const BufferAuto = -1

// BufferOff disables staging unconditionally (Options.BufferSize = -2):
// unlike 0, it is not upgraded to BufferAuto on backends whose
// capability descriptor declares a multipart part-size floor. The
// POSIX-tuned-geometry arms of the backend experiments use it to show
// what un-tuned defaults cost on an object store.
const BufferOff = -2

// bufferAutoCap bounds the auto-sized staging buffer, mirroring
// asyncFlushCap on the collective path: beyond a few MiB per task the
// request-count reduction has long saturated and the buffer only costs
// memory.
const bufferAutoCap = 4 << 20

// resolveBufferSize turns Options.BufferSize into an effective staging
// size for a chunk of the given capacity (0 = unbuffered).
func resolveBufferSize(opt, capacity, fsblk int64) int64 {
	switch {
	case opt == 0:
		return 0
	case opt == BufferAuto:
		b := capacity
		if b > bufferAutoCap {
			b = bufferAutoCap
		}
		b = alignUp(b, fsblk)
		if b < fsblk {
			b = fsblk
		}
		return b
	default:
		return opt
	}
}

// writeStage is the write-behind state of one direct-mode handle: buf
// holds the staged bytes of the current chunk range [pos-len(buf), pos),
// where pos is the handle's logical cursor.
type writeStage struct {
	size int64
	buf  []byte
}

// readStage caches one contiguous region of one chunk's used bytes:
// chunk-relative range [start, start+len(data)) of block `block`.
type readStage struct {
	size  int64
	block int
	start int64
	data  []byte
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

// initStaging arms the staging layer on a freshly opened handle.
func (f *File) initStaging(bufSize int64) {
	n := resolveBufferSize(bufSize, f.geo.capacity(geoIndex), f.fsblk)
	if n <= 0 {
		return
	}
	if f.mode == WriteMode {
		if f.coll != nil {
			return // collective write: members never touch the file
		}
		f.wstage = &writeStage{size: n, buf: getStageBuf(n)}
		return
	}
	if f.collRead != nil {
		return // collective read: the stream is already in memory
	}
	f.rstage = &readStage{size: n, block: -1}
}

// SetBufferSize reconfigures the staging layer of an open handle
// (Options.BufferSize for handles opened without options, e.g. OpenRank):
// n > 0 is an explicit size, BufferAuto derives one from the chunk
// geometry, 0 disables staging — an explicit 0 also opts the handle out
// of NewKeyReader's automatic read-ahead. On a write handle any staged
// bytes are flushed first. Collective handles ignore the call (their
// data path does not issue per-record requests to begin with).
func (f *File) SetBufferSize(n int64) error {
	if n < BufferAuto {
		return fmt.Errorf("sion: %s: BufferSize %d (use 0, a positive size, or BufferAuto)", f.name, n)
	}
	if f.closed {
		return fmt.Errorf("sion: %s: handle is closed", f.name)
	}
	if err := f.stageFlush(); err != nil {
		return err
	}
	f.dropStaging()
	f.stagingOff = n == 0
	f.initStaging(n)
	return nil
}

// releaseStage returns the read-ahead stage's buffer to the pool while
// keeping the stage armed (the next miss refetches). The serial cursor
// calls this when it leaves a rank, so a global-view scan over many tasks
// holds at most one staging buffer at a time, as the pre-mapped serial
// read stage did.
func (f *File) releaseStage() {
	if f.rstage != nil {
		putStageBuf(f.rstage.data)
		f.rstage.data = nil
		f.rstage.block = -1
	}
}

// dropStaging releases the stage buffers back to the shared pool.
func (f *File) dropStaging() {
	if f.wstage != nil {
		putStageBuf(f.wstage.buf)
		f.wstage = nil
	}
	if f.rstage != nil {
		putStageBuf(f.rstage.data)
		f.rstage = nil
	}
}

// stagedWrite is the write-behind Write path: append to the staging
// buffer, flushing a block-aligned prefix when the buffer fills and the
// whole buffer at chunk boundaries.
func (f *File) stagedWrite(p []byte) (int, error) {
	ws := f.wstage
	total := 0
	for len(p) > 0 {
		capacity := f.ChunkCapacity()
		if capacity-f.pos == 0 {
			// advanceBlock flushes the stage before moving the cursor.
			if err := f.advanceBlock(); err != nil {
				return total, err
			}
		}
		w := int64(len(p))
		if avail := capacity - f.pos; w > avail {
			w = avail
		}
		// Large-write bypass: with nothing staged, a write of at least one
		// buffer is already a big request — issue it directly instead of
		// paying a copy through the stage.
		if len(ws.buf) == 0 && w >= ws.size {
			if _, err := f.fh.WriteAt(p[:w], f.dataOff()+f.pos); err != nil {
				return total, fmt.Errorf("sion: %s: chunk write: %w", f.name, err)
			}
		} else {
			if room := ws.size - int64(len(ws.buf)); w > room {
				w = room
			}
			ws.buf = append(ws.buf, p[:w]...)
		}
		f.pos += w
		f.blockBytes[f.curBlock] = f.pos
		total += int(w)
		p = p[w:]
		if f.pos == capacity {
			// The chunk is complete; staged bytes must not cross into the
			// next block's distant file offset.
			if err := f.stageFlush(); err != nil {
				return total, err
			}
		} else if int64(len(ws.buf)) >= ws.size {
			if err := f.stageFlushAligned(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// stageFlush writes every staged byte (chunk boundary, Flush, Close, or a
// bypass such as WriteSynthetic).
func (f *File) stageFlush() error {
	if f.wstage == nil || len(f.wstage.buf) == 0 {
		return nil
	}
	ws := f.wstage
	start := f.pos - int64(len(ws.buf))
	if _, err := f.fh.WriteAt(ws.buf, f.dataOff()+start); err != nil {
		return fmt.Errorf("sion: %s: staged write: %w", f.name, err)
	}
	ws.buf = ws.buf[:0]
	return nil
}

// stageFlushAligned writes the staged prefix up to the last FS block
// boundary, keeping the partial tail block staged so the next flush
// begins block-aligned. When the whole buffer fits inside one block (or
// the region is misaligned by construction, e.g. chunk headers), it
// degrades to a full flush.
func (f *File) stageFlushAligned() error {
	ws := f.wstage
	start := f.pos - int64(len(ws.buf))
	abs := f.dataOff() + start
	end := abs + int64(len(ws.buf))
	n := end - end%f.fsblk - abs
	if n <= 0 || n == int64(len(ws.buf)) {
		return f.stageFlush()
	}
	if _, err := f.fh.WriteAt(ws.buf[:n], abs); err != nil {
		return fmt.Errorf("sion: %s: staged write: %w", f.name, err)
	}
	kept := copy(ws.buf, ws.buf[n:])
	ws.buf = ws.buf[:kept]
	return nil
}

// directReadBlocks is where reading a record where it is going overtakes
// fetching it into the stage and copying it out: one more pread (≈ 1 µs
// on a cached file) against a second pass through memory (≈ 0.1 µs/KiB).
// BenchmarkReadBack/crossover on fsio.OS with 4 KiB blocks has staged
// ahead at 1 block, the two level at 2, and direct ahead by a quarter and
// more from 4. Counted in blocks because a request is only efficient at
// the FS's own granularity: on a parallel FS with 1–4 MiB blocks (paper
// Table 1) the rule never fires below the stage size.
const directReadBlocks = 4

// directReadBytes is the size from which a read that misses the stage is
// an efficient request on its own: what the backend says it is
// (PreferredRequestBytes — object stores price every request), else
// directReadBlocks FS blocks.
func directReadBytes(caps fsio.Capabilities, fsblk int64) int64 {
	if caps.PreferredRequestBytes > 0 {
		return caps.PreferredRequestBytes
	}
	return directReadBlocks * fsblk
}

// stagedReadAt serves [pos, pos+len(p)) of block b's data area. What the
// stage covers is copied out of it. A miss of at least directRead bytes
// (or a whole stage) is read straight into p and leaves the stage as it
// was; a smaller one fetches up to one whole chunk region (the block's
// remaining used bytes, capped at the stage size) in one request and is
// served from that. Callers clamp p to the block's recorded bytes, so the
// fetch always covers the request.
func (f *File) stagedReadAt(p []byte, block int, pos int64) error {
	rs := f.rstage
	if rs.covers(block, pos, int64(len(p))) {
		copy(p, rs.data[pos-rs.start:])
		return nil
	}
	off := f.geo.dataOff(geoIndex, block) + pos
	if int64(len(p)) >= min(f.directRead, rs.size) {
		return readAtZeroFill(f.fh, p, off)
	}
	fetch := min(rs.size, f.readBytes[block]-pos)
	if int64(cap(rs.data)) < fetch {
		putStageBuf(rs.data)
		rs.data = getStageBuf(fetch)
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

// --- SerialFile --------------------------------------------------------------

// serialWriteStage stages one contiguous run of a serial handle's writes:
// chunk-relative range [start, start+len(buf)) of (rank, block).
type serialWriteStage struct {
	size  int64
	rank  int
	block int
	start int64
	buf   []byte
}

// SetBufferSize configures write-behind/read-ahead staging for the serial
// handle (Create honors Options.BufferSize; Open has no options, so read
// tools call this). In write mode, BufferAuto derives the size from the
// largest aligned chunk of the multifile; 0 disables staging and flushes
// pending writes. In read mode the call is forwarded to the per-rank
// mapped handles (SerialFile is the M=1 mapped case), so each rank gets a
// read-ahead stage sized to its own chunk geometry.
func (sf *SerialFile) SetBufferSize(n int64) error {
	if n < BufferAuto {
		return fmt.Errorf("sion: %s: BufferSize %d (use 0, a positive size, or BufferAuto)", sf.name, n)
	}
	if sf.closed {
		return fmt.Errorf("sion: %s: handle is closed", sf.name)
	}
	if sf.mode == ReadMode {
		for r := 0; r < sf.ntasks; r++ {
			if err := sf.handles[r].SetBufferSize(n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sf.stageFlush(); err != nil {
		return err
	}
	if sf.wstage != nil {
		putStageBuf(sf.wstage.buf)
		sf.wstage = nil
	}
	var maxAligned int64
	for _, pf := range sf.files {
		for _, a := range pf.geo.aligned {
			if a > maxAligned {
				maxAligned = a
			}
		}
	}
	size := resolveBufferSize(n, maxAligned, sf.fsblk)
	if size <= 0 {
		return nil
	}
	sf.wstage = &serialWriteStage{size: size, rank: -1, buf: getStageBuf(size)}
	return nil
}

// stageFlush writes every staged byte of the serial write stage.
func (sf *SerialFile) stageFlush() error {
	ws := sf.wstage
	if ws == nil || len(ws.buf) == 0 {
		return nil
	}
	pf := sf.files[sf.mapping[ws.rank].File]
	li := int(sf.mapping[ws.rank].LocalRank)
	off := pf.geo.dataOff(li, ws.block) + ws.start
	if _, err := pf.fh.WriteAt(ws.buf, off); err != nil {
		return fmt.Errorf("sion: %s: staged serial write: %w", sf.name, err)
	}
	ws.start += int64(len(ws.buf))
	ws.buf = ws.buf[:0]
	return nil
}

// stageFlushAligned flushes the staged prefix down to an FS block
// boundary (buffer-full case), keeping the partial tail block staged.
func (sf *SerialFile) stageFlushAligned() error {
	ws := sf.wstage
	pf := sf.files[sf.mapping[ws.rank].File]
	li := int(sf.mapping[ws.rank].LocalRank)
	abs := pf.geo.dataOff(li, ws.block) + ws.start
	end := abs + int64(len(ws.buf))
	n := end - end%sf.fsblk - abs
	if n <= 0 || n == int64(len(ws.buf)) {
		return sf.stageFlush()
	}
	if _, err := pf.fh.WriteAt(ws.buf[:n], abs); err != nil {
		return fmt.Errorf("sion: %s: staged serial write: %w", sf.name, err)
	}
	ws.start += n
	kept := copy(ws.buf, ws.buf[n:])
	ws.buf = ws.buf[:kept]
	return nil
}

// stagedWrite is the serial write-behind path: contiguous writes at the
// cursor accumulate in the stage; a cursor that moved elsewhere (Seek, or
// a block advance) flushes first.
func (sf *SerialFile) stagedWrite(p []byte) (int, error) {
	ws := sf.wstage
	pf, li := sf.cursorFile()
	capacity := pf.geo.capacity(li)
	total := 0
	for len(p) > 0 {
		if sf.curPos == capacity {
			if err := sf.stageFlush(); err != nil {
				return total, err
			}
			sf.curBlock++
			sf.curPos = 0
		}
		if ws.rank != sf.curRank || ws.block != sf.curBlock || ws.start+int64(len(ws.buf)) != sf.curPos {
			if err := sf.stageFlush(); err != nil {
				return total, err
			}
			ws.rank, ws.block, ws.start = sf.curRank, sf.curBlock, sf.curPos
		}
		w := int64(len(p))
		if avail := capacity - sf.curPos; w > avail {
			w = avail
		}
		if len(ws.buf) == 0 && w >= ws.size {
			// Large-write bypass, as on the parallel path.
			off := pf.geo.dataOff(li, sf.curBlock) + sf.curPos
			if _, err := pf.fh.WriteAt(p[:w], off); err != nil {
				return total, fmt.Errorf("sion: %s: serial write: %w", sf.name, err)
			}
			ws.start = sf.curPos + w
		} else {
			if room := ws.size - int64(len(ws.buf)); w > room {
				w = room
			}
			ws.buf = append(ws.buf, p[:w]...)
		}
		sf.curPos += w
		sf.noteWritten(sf.curRank, sf.curBlock, sf.curPos)
		total += int(w)
		p = p[w:]
		if sf.curPos == capacity {
			if err := sf.stageFlush(); err != nil {
				return total, err
			}
		} else if int64(len(ws.buf)) >= ws.size {
			if err := sf.stageFlushAligned(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}
