package sion

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/fsio"
)

// Chunk-commit watermarks: the durability protocol that turns a multifile
// that is still being written into something safe to read (tailing reads,
// see tail.go and internal/serve).
//
// Each physical segment gets a small sidecar file ("<segment>.wmk") holding
// one fixed-slot commit record per (block, local rank). Writers publish
// their progress there on every Flush, observing a strict ordering:
//
//	chunk data WriteAt  →  data fh.Sync()  →  commit cell WriteAt  →  wm fh.Sync()
//
// so a committed byte count never refers to bytes that could still be lost
// in a crash. Readers replay the cells and treat the committed frontier as
// the end of the visible stream; everything past it — including torn,
// half-flushed records — simply does not exist yet from their point of
// view.
//
// Every cell is double-buffered (two 32-byte slots, written alternately,
// seqlock style): a crash can tear at most the cell being written, and the
// partner slot still holds the previous durable commit. That is what lets
// Repair and tail readers recover to the last durable watermark instead of
// failing the whole rank when the final commit record is torn.
const (
	magicWatermark = "SIONWMK1"
	wmVersion      = 1

	// wmHeaderSize is the sidecar header: magic[8] + version u32 +
	// ntasksLocal u32 + filenum u32 + pad u32 + reserved[8].
	wmHeaderSize = 32

	// wmCellSize is one commit record slot: seq u64 + bytes u64 + flags
	// u64 + crc u32 + pad u32 (crc over the first 24 bytes).
	wmCellSize = 32
	wmPairSize = 2 * wmCellSize

	wmFlagSealed = uint64(1) << 0

	// maxWMBlocks caps the replay depth per rank, mirroring the metablock-2
	// block-count plausibility bound.
	maxWMBlocks = 1 << 24
)

// ErrAgain is returned by tailing reads that caught up with the committed
// watermark of a live multifile: no error occurred, there is just no
// committed data past the current position yet. Refresh, then read again.
var ErrAgain = errors.New("sion: at the committed watermark (no new data yet)")

// TailCommit is the durable write progress of one block of one rank:
// Bytes committed bytes, and whether the block is sealed (the writer moved
// on — or closed — so the count is final).
type TailCommit struct {
	Bytes  int64
	Sealed bool
}

// wmName returns the watermark sidecar name of physical file k.
func wmName(base string, k int) string { return fileName(base, k) + ".wmk" }

func encodeWMHeader(ntasksLocal, filenum int) []byte {
	buf := make([]byte, wmHeaderSize)
	copy(buf, magicWatermark)
	le().PutUint32(buf[8:], wmVersion)
	le().PutUint32(buf[12:], uint32(ntasksLocal))
	le().PutUint32(buf[16:], uint32(filenum))
	return buf
}

func parseWMHeader(buf []byte) (ntasksLocal, filenum int, err error) {
	if len(buf) < wmHeaderSize {
		return 0, 0, fmt.Errorf("%w: watermark file too small for header (%d bytes)", ErrCorrupt, len(buf))
	}
	if string(buf[:8]) != magicWatermark {
		return 0, 0, fmt.Errorf("%w: bad watermark magic %q", ErrCorrupt, buf[:8])
	}
	if v := le().Uint32(buf[8:]); v != wmVersion {
		return 0, 0, fmt.Errorf("%w: unsupported watermark version %d", ErrCorrupt, v)
	}
	ntasksLocal = int(int32(le().Uint32(buf[12:])))
	filenum = int(int32(le().Uint32(buf[16:])))
	if ntasksLocal <= 0 || ntasksLocal > maxTasks {
		return 0, 0, fmt.Errorf("%w: watermark header claims %d local tasks", ErrCorrupt, ntasksLocal)
	}
	if filenum < 0 || filenum >= maxPhysFiles {
		return 0, 0, fmt.Errorf("%w: watermark header claims file number %d", ErrCorrupt, filenum)
	}
	return ntasksLocal, filenum, nil
}

// wmCellOff returns the offset of slot `slot` of the cell pair of
// (block b, local rank li) in a sidecar of ntasksLocal ranks.
func wmCellOff(ntasksLocal, li, b, slot int) int64 {
	return wmHeaderSize + (int64(b)*int64(ntasksLocal)+int64(li))*wmPairSize + int64(slot)*wmCellSize
}

func encodeWMCell(seq uint64, bytes int64, sealed bool) []byte {
	buf := make([]byte, wmCellSize)
	le().PutUint64(buf[0:], seq)
	le().PutUint64(buf[8:], uint64(bytes))
	var flags uint64
	if sealed {
		flags |= wmFlagSealed
	}
	le().PutUint64(buf[16:], flags)
	le().PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	return buf
}

// parseWMCell validates one slot. ok=false covers every damaged state —
// never-written (zero), torn mid-write, or implausible — because a torn
// cell is an expected crash artifact, not a structural error: the caller
// falls back to the partner slot. buf is one whole cell.
func parseWMCell(buf []byte) (seq uint64, bytes int64, sealed bool, ok bool) {
	if crc32.ChecksumIEEE(buf[:24]) != le().Uint32(buf[24:]) {
		return 0, 0, false, false
	}
	seq = le().Uint64(buf[0:])
	bytes = int64(le().Uint64(buf[8:]))
	if seq == 0 || bytes < 0 || bytes > maxChunkSize {
		return 0, 0, false, false
	}
	return seq, bytes, le().Uint64(buf[16:])&wmFlagSealed != 0, true
}

// decodeWatermarks parses a whole sidecar file image and replays every
// rank's commit cells into its durable per-block state. Replay per rank
// walks blocks from 0: the newest valid slot of each pair wins; a pair
// with no valid slot ends the rank (the block was never committed — or its
// only commit tore, in which case the rank recovers to the blocks before
// it); an unsealed block is the open frontier and also ends the rank.
// Structural damage (header, size caps) yields ErrCorrupt, exactly like
// decodeMapping; torn cells are data-level and recovered, not errors.
func decodeWatermarks(buf []byte) (ntasksLocal, filenum int, states [][]TailCommit, err error) {
	ntasksLocal, filenum, err = parseWMHeader(buf)
	if err != nil {
		return 0, 0, nil, err
	}
	if int64(len(buf)) > wmHeaderSize+int64(maxWMBlocks)*int64(ntasksLocal)*wmPairSize {
		return 0, 0, nil, fmt.Errorf("%w: watermark file implausibly large (%d bytes)", ErrCorrupt, len(buf))
	}
	states = make([][]TailCommit, ntasksLocal)
	for li := 0; li < ntasksLocal; li++ {
		for b := 0; ; b++ {
			off := wmCellOff(ntasksLocal, li, b, 0)
			if off+wmPairSize > int64(len(buf)) {
				break
			}
			var best TailCommit
			var bestSeq uint64
			for slot := 0; slot < 2; slot++ {
				so := off + int64(slot)*wmCellSize
				seq, bytes, sealed, ok := parseWMCell(buf[so : so+wmCellSize])
				if ok && seq > bestSeq {
					bestSeq = seq
					best = TailCommit{Bytes: bytes, Sealed: sealed}
				}
			}
			if bestSeq == 0 {
				break
			}
			states[li] = append(states[li], best)
			if !best.Sealed {
				break
			}
		}
	}
	return ntasksLocal, filenum, states, nil
}

// readWatermarkFile reads and decodes a segment's sidecar through an open
// handle (readers re-read it on every Poll; the file is tiny).
func readWatermarkFile(fh fsio.File) (ntasksLocal, filenum int, states [][]TailCommit, err error) {
	size, err := fh.Size()
	if err != nil {
		return 0, 0, nil, err
	}
	if size > wmHeaderSize+int64(maxWMBlocks)*wmPairSize*int64(maxTasks) {
		return 0, 0, nil, fmt.Errorf("%w: watermark file implausibly large (%d bytes)", ErrCorrupt, size)
	}
	buf := make([]byte, size)
	if size > 0 {
		// A concurrent Truncate cannot happen, but a short read past a
		// racing snapshot is harmless: missing tail cells parse as
		// never-written.
		if _, err := fh.ReadAt(buf, 0); err != nil && err != io.EOF {
			return 0, 0, nil, err
		}
	}
	return decodeWatermarks(buf)
}

// wmCommitted sums a rank's committed bytes across its blocks.
func wmCommitted(blocks []TailCommit) int64 {
	var total int64
	for _, c := range blocks {
		total += c.Bytes
	}
	return total
}

// --- Writer side -------------------------------------------------------------

// wmWriter publishes commit cells into one segment's sidecar. A direct
// writer commits its own local rank; a collective collector commits for
// every member of its group. Slot alternation per (rank, block) is keyed
// by the cell's sequence number.
type wmWriter struct {
	fh     fsio.File
	nlocal int
	seq    map[int64]uint64 // (block*nlocal + li) -> last written seq
}

func newWMWriter(fh fsio.File, nlocal int) *wmWriter {
	return &wmWriter{fh: fh, nlocal: nlocal, seq: make(map[int64]uint64)}
}

// createWM creates a segment's sidecar with a durable header (master only,
// before the geometry scatter, so every other rank can open it afterwards).
func createWM(fsys fsio.FileSystem, name string, k, nlocal int) (fsio.File, error) {
	fh, err := fsys.Create(wmName(name, k))
	if err != nil {
		return nil, err
	}
	if _, err := fh.WriteAt(encodeWMHeader(nlocal, k), 0); err != nil {
		fh.Close()
		return nil, err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return nil, err
	}
	return fh, nil
}

// commit writes the next cell for (li, block). The caller has already made
// the data bytes durable; the caller also syncs the sidecar afterwards
// (one sync may cover a batch of cells).
func (w *wmWriter) commit(li, block int, bytes int64, sealed bool) error {
	key := int64(block)*int64(w.nlocal) + int64(li)
	seq := w.seq[key] + 1
	w.seq[key] = seq
	slot := int(seq % 2)
	if _, err := w.fh.WriteAt(encodeWMCell(seq, bytes, sealed), wmCellOff(w.nlocal, li, block, slot)); err != nil {
		return fmt.Errorf("sion: watermark commit: %w", err)
	}
	return nil
}

func (w *wmWriter) sync() error { return w.fh.Sync() }

func (w *wmWriter) close() error { return w.fh.Close() }

// wmCommitProgress publishes a direct writer's progress: every block sealed
// since the last commit, then the open block's current byte count (or, on
// final=true, the last block sealed). The caller must have synced the data
// file first.
func (f *File) wmCommitProgress(final bool) error {
	if f.wm == nil {
		return nil
	}
	wrote := false
	for b := f.wmSealedTo; b < f.curBlock; b++ {
		if err := f.wm.commit(f.local, b, f.blockBytes[b], true); err != nil {
			return err
		}
		wrote = true
	}
	if f.wmSealedTo < f.curBlock {
		f.wmSealedTo = f.curBlock
	}
	switch {
	case final:
		if f.wmSealedTo == f.curBlock {
			if err := f.wm.commit(f.local, f.curBlock, f.pos, true); err != nil {
				return err
			}
			f.wmSealedTo = f.curBlock + 1
			wrote = true
		}
	case wrote || f.pos != f.wmOpenBytes:
		if err := f.wm.commit(f.local, f.curBlock, f.pos, false); err != nil {
			return err
		}
		f.wmOpenBytes = f.pos
		wrote = true
	}
	if !wrote {
		return nil
	}
	return f.wm.sync()
}
