// Package sion implements the SIONlib multifile format and API from
// "Scalable Massively Parallel I/O to Task-Local Files" (Frings, Wolf,
// Petkov; SC09): a large number of logical task-local files is mapped onto
// one or a few physical files ("multifiles"), avoiding metadata contention
// during file creation and aligning per-task chunks to file-system block
// boundaries so that read/write bandwidth is not penalized.
//
// The programming interface mirrors the paper's ANSI-C extension in Go
// form:
//
//	C API                          Go API
//	sion_paropen_mpi               ParOpen (collective)
//	sion_paropen_mapped            ParOpenMapped (collective, M readers ≠ N writers)
//	sion_parclose_mpi              (*File).Close (collective)
//	sion_ensure_free_space         (*File).EnsureFreeSpace
//	sion_bytes_avail_in_chunk      (*File).BytesAvailInChunk
//	sion_feof                      (*File).EOF
//	sion_fwrite / fwrite           (*File).Write
//	sion_fread / fread             (*File).Read
//	sion_open / sion_close         Open / Create (serial, global view)
//	sion_open_rank                 OpenRank (serial, task-local view)
//	sion_seek                      (*SerialFile).Seek
//	sion_get_locations             (*SerialFile).Locations
//
// Extensions implemented from the paper's §6 future-work list: per-chunk
// headers enabling metadata reconstruction after failures (Repair), and
// transparent zlib stream compression (NewZWriter/NewZReader).
package sion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/fsio"
)

// Format constants (all integers little-endian).
const (
	magicHeader = "SIONGO1\x00" // metablock 1
	magicMeta2  = "SIONMET2"    // metablock 2
	magicTail   = "SIONTAIL"    // trailer
	magicChunk  = "SIONCHNK"    // per-chunk header (optional)

	formatVersion = 1

	// tailSize is the fixed trailer at the end of each physical file:
	// magic[8] + metablock-2 offset i64 + crc32 u32 + pad u32.
	tailSize = 24

	// chunkHeaderSize is the self-describing header at the start of every
	// chunk when Options.ChunkHeaders is set.
	chunkHeaderSize = 64
)

// Flag bits stored in metablock 1.
const (
	flagChunkHeaders uint64 = 1 << 0
	flagWatermarks   uint64 = 1 << 1 // writers publish chunk-commit watermarks (watermark.go)
)

// ErrCorrupt is wrapped by parse errors on damaged multifiles. Besides the
// usual errors.Is identity, it carries a Corrupt() marker method so the
// resilience layer (internal/resil) can classify damage structurally —
// "the bytes arrived but fail validation, retrying re-reads the same
// bytes" — without this package and that one importing each other.
var ErrCorrupt error = corruptError{}

type corruptError struct{}

func (corruptError) Error() string { return "sion: corrupt multifile" }

// Corrupt marks the error as data damage for structural classification.
func (corruptError) Corrupt() bool { return true }

// Plausibility caps applied when parsing untrusted metadata, so corrupted
// or adversarial headers produce ErrCorrupt instead of absurd allocations
// or integer overflow in the chunk arithmetic.
const (
	maxTasks       = 1 << 21 // 2 Mi tasks (paper scale is 64 Ki)
	maxPhysFiles   = 1 << 20
	maxFSBlockSize = 1 << 30 // 1 GiB FS blocks
	maxChunkSize   = 1 << 40 // 1 TiB per chunk
)

// FileLoc places one global task inside the multifile collection.
type FileLoc struct {
	File      int32 // physical file number
	LocalRank int32 // rank within that file's task group
}

// header is metablock 1 of one physical file.
type header struct {
	FSBlockSize  int64
	NTasksGlobal int32
	NTasksLocal  int32
	NFiles       int32
	FileNum      int32
	Flags        uint64
	MaxChunks    int32     // chunks-per-task hint of the original format; always written 0
	GlobalRanks  []int64   // per local task
	ChunkSizes   []int64   // per local task, as requested
	Mapping      []FileLoc // file 0 only: per global task
}

const headerFixedSize = 8 + 4 + 8 + 4*4 + 8 + 4 + 4 // magic,ver,fsblk,counts,flags,maxchunks,pad

func (h *header) encodedSize() int {
	n := headerFixedSize + 16*int(h.NTasksLocal)
	if h.FileNum == 0 {
		n += 8 * int(h.NTasksGlobal)
	}
	return n
}

func (h *header) encode() []byte {
	buf := make([]byte, h.encodedSize())
	copy(buf, magicHeader)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], formatVersion)
	le.PutUint64(buf[12:], uint64(h.FSBlockSize))
	le.PutUint32(buf[20:], uint32(h.NTasksGlobal))
	le.PutUint32(buf[24:], uint32(h.NTasksLocal))
	le.PutUint32(buf[28:], uint32(h.NFiles))
	le.PutUint32(buf[32:], uint32(h.FileNum))
	le.PutUint64(buf[36:], h.Flags)
	le.PutUint32(buf[44:], uint32(h.MaxChunks))
	off := headerFixedSize
	for i := 0; i < int(h.NTasksLocal); i++ {
		le.PutUint64(buf[off:], uint64(h.GlobalRanks[i]))
		le.PutUint64(buf[off+8:], uint64(h.ChunkSizes[i]))
		off += 16
	}
	if h.FileNum == 0 {
		for i := 0; i < int(h.NTasksGlobal); i++ {
			le.PutUint32(buf[off:], uint32(h.Mapping[i].File))
			le.PutUint32(buf[off+4:], uint32(h.Mapping[i].LocalRank))
			off += 8
		}
	}
	return buf
}

// parseHeader reads and validates metablock 1 from the start of f.
func parseHeader(f fsio.File) (*header, error) {
	fixed := make([]byte, headerFixedSize)
	if err := readMeta(f, fixed, 0, "header"); err != nil {
		return nil, err
	}
	if string(fixed[:8]) != magicHeader {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, fixed[:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(fixed[8:]); v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	h := &header{
		FSBlockSize:  int64(le.Uint64(fixed[12:])),
		NTasksGlobal: int32(le.Uint32(fixed[20:])),
		NTasksLocal:  int32(le.Uint32(fixed[24:])),
		NFiles:       int32(le.Uint32(fixed[28:])),
		FileNum:      int32(le.Uint32(fixed[32:])),
		Flags:        le.Uint64(fixed[36:]),
		MaxChunks:    int32(le.Uint32(fixed[44:])),
	}
	switch {
	case h.FSBlockSize <= 0 || h.FSBlockSize > maxFSBlockSize,
		h.NTasksGlobal <= 0 || h.NTasksGlobal > maxTasks,
		h.NTasksLocal <= 0 || h.NTasksLocal > h.NTasksGlobal,
		h.NFiles <= 0 || h.NFiles > maxPhysFiles,
		h.FileNum < 0 || h.FileNum >= h.NFiles:
		return nil, fmt.Errorf("%w: implausible header fields %+v", ErrCorrupt, *h)
	}
	rest := make([]byte, h.encodedSize()-headerFixedSize)
	if err := readMeta(f, rest, headerFixedSize, "header tables"); err != nil {
		return nil, err
	}
	off := 0
	h.GlobalRanks = make([]int64, h.NTasksLocal)
	h.ChunkSizes = make([]int64, h.NTasksLocal)
	for i := range h.GlobalRanks {
		h.GlobalRanks[i] = int64(le.Uint64(rest[off:]))
		h.ChunkSizes[i] = int64(le.Uint64(rest[off+8:]))
		if h.ChunkSizes[i] <= 0 || h.ChunkSizes[i] > maxChunkSize {
			return nil, fmt.Errorf("%w: chunk size %d for local task %d", ErrCorrupt, h.ChunkSizes[i], i)
		}
		off += 16
	}
	if h.FileNum == 0 {
		// The stored table goes through the same hardened codec the write
		// open uses for the forwarded copy, so the validation rules cannot
		// drift between the two.
		mapping, err := decodeMapping(rest[off:], int(h.NTasksGlobal), int(h.NFiles))
		if err != nil {
			return nil, err
		}
		h.Mapping = mapping
	}
	return h, nil
}

// geometry is the derived chunk arithmetic of one physical file
// (paper §3.1, Fig. 2): chunk sizes are rounded up to a multiple of the FS
// block size; blocks of one chunk per task repeat with a fixed stride, so
// every task knows the address of every one of its chunks without
// communication.
type geometry struct {
	fsblk   int64
	start   int64   // offset of block 0 (header rounded up to fsblk)
	aligned []int64 // per local task: chunk size aligned up
	prefix  []int64 // per local task: offset of its chunk within a block
	stride  int64   // sum of aligned chunk sizes = block-to-block distance
	headers bool    // chunk headers present
}

// alignUp rounds n up to a multiple of align, an FS block size that every
// caller has validated positive.
func alignUp(n, align int64) int64 {
	return (n + align - 1) / align * align
}

func newGeometry(h *header) geometry {
	g := geometry{
		fsblk:   h.FSBlockSize,
		start:   alignUp(int64(h.encodedSize()), h.FSBlockSize),
		aligned: make([]int64, h.NTasksLocal),
		prefix:  make([]int64, h.NTasksLocal),
		headers: h.Flags&flagChunkHeaders != 0,
	}
	var sum int64
	for i, cs := range h.ChunkSizes {
		a := alignUp(cs, h.FSBlockSize)
		if g.headers && a-chunkHeaderSize < cs {
			// Keep the requested capacity available despite the header.
			a = alignUp(cs+chunkHeaderSize, h.FSBlockSize)
		}
		g.aligned[i] = a
		g.prefix[i] = sum
		sum += a
	}
	g.stride = sum
	return g
}

// chunkOff returns the file offset of local task i's chunk in block b
// (the chunk header, if any, lives at this offset).
func (g *geometry) chunkOff(i, b int) int64 {
	return g.start + int64(b)*g.stride + g.prefix[i]
}

// dataOff returns the offset of usable data of local task i in block b.
func (g *geometry) dataOff(i, b int) int64 {
	off := g.chunkOff(i, b)
	if g.headers {
		off += chunkHeaderSize
	}
	return off
}

// capacity returns the usable bytes per chunk for local task i.
func (g *geometry) capacity(i int) int64 {
	c := g.aligned[i]
	if g.headers {
		c -= chunkHeaderSize
	}
	return c
}

// meta2 is metablock 2: what each task actually wrote (paper §3.1: chunk
// counts and the space occupied in each chunk, gathered at close).
type meta2 struct {
	BlockBytes [][]int64 // per local task, per block: bytes written
}

func (m *meta2) encode() []byte {
	n := 16 + 4*len(m.BlockBytes)
	for _, bb := range m.BlockBytes {
		n += 8 * len(bb)
	}
	buf := make([]byte, n)
	copy(buf, magicMeta2)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], uint32(len(m.BlockBytes)))
	off := 16
	for _, bb := range m.BlockBytes {
		le.PutUint32(buf[off:], uint32(len(bb)))
		off += 4
	}
	for _, bb := range m.BlockBytes {
		for _, v := range bb {
			le.PutUint64(buf[off:], uint64(v))
			off += 8
		}
	}
	return buf
}

func parseMeta2(buf []byte, ntasks int) (*meta2, error) {
	if len(buf) < 16 || string(buf[:8]) != magicMeta2 {
		return nil, fmt.Errorf("%w: bad metablock-2 magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	if got := int(le.Uint32(buf[8:])); got != ntasks {
		return nil, fmt.Errorf("%w: metablock 2 holds %d tasks, header says %d", ErrCorrupt, got, ntasks)
	}
	if len(buf) < 16+4*ntasks {
		return nil, fmt.Errorf("%w: metablock 2 truncated", ErrCorrupt)
	}
	counts := make([]int, ntasks)
	off := 16
	total := 0
	for i := range counts {
		counts[i] = int(le.Uint32(buf[off:]))
		if counts[i] < 0 || counts[i] > 1<<24 {
			return nil, fmt.Errorf("%w: task %d block count %d", ErrCorrupt, i, counts[i])
		}
		total += counts[i]
		off += 4
	}
	if len(buf) < off+8*total {
		return nil, fmt.Errorf("%w: metablock 2 truncated", ErrCorrupt)
	}
	m := &meta2{BlockBytes: make([][]int64, ntasks)}
	for i := range m.BlockBytes {
		bb := make([]int64, counts[i])
		for b := range bb {
			bb[b] = int64(le.Uint64(buf[off:]))
			off += 8
		}
		m.BlockBytes[i] = bb
	}
	return m, nil
}

// writeTail writes metablock 2 and the trailer at the end of the physical
// file, returning the metablock-2 offset.
func writeTail(f fsio.File, m *meta2, at int64) (int64, error) {
	enc := m.encode()
	if _, err := f.WriteAt(enc, at); err != nil {
		return 0, fmt.Errorf("sion: writing metablock 2: %w", err)
	}
	tail := make([]byte, tailSize)
	copy(tail, magicTail)
	le := binary.LittleEndian
	le.PutUint64(tail[8:], uint64(at))
	le.PutUint32(tail[16:], crc32.ChecksumIEEE(enc))
	if _, err := f.WriteAt(tail, at+int64(len(enc))); err != nil {
		return 0, fmt.Errorf("sion: writing trailer: %w", err)
	}
	return at, nil
}

// readMeta fills buf with the metadata (what) at off of f. A short read —
// the file ends inside the metadata — is ErrCorrupt. Any other failure is
// the backend's and is wrapped as such, not as ErrCorrupt, so that a
// transient read stays retryable (resil.Classify).
func readMeta(f fsio.File, buf []byte, off int64, what string) error {
	n, err := f.ReadAt(buf, off)
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		if n == len(buf) {
			return nil
		}
		return fmt.Errorf("%w: %s truncated (%d of %d bytes)", ErrCorrupt, what, n, len(buf))
	}
	return fmt.Errorf("sion: reading %s: %w", what, err)
}

// readTail locates, validates, and parses metablock 2.
func readTail(f fsio.File, ntasks int) (*meta2, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < tailSize {
		return nil, fmt.Errorf("%w: file too small for trailer", ErrCorrupt)
	}
	tail := make([]byte, tailSize)
	if err := readMeta(f, tail, size-tailSize, "trailer"); err != nil {
		return nil, err
	}
	if string(tail[:8]) != magicTail {
		return nil, fmt.Errorf("%w: missing trailer (crash before close?)", ErrCorrupt)
	}
	le := binary.LittleEndian
	at := int64(le.Uint64(tail[8:]))
	want := le.Uint32(tail[16:])
	if at < 0 || at > size-tailSize {
		return nil, fmt.Errorf("%w: trailer points outside file", ErrCorrupt)
	}
	enc := make([]byte, size-tailSize-at)
	if err := readMeta(f, enc, at, "metablock 2"); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(enc) != want {
		return nil, fmt.Errorf("%w: metablock 2 checksum mismatch", ErrCorrupt)
	}
	return parseMeta2(enc, ntasks)
}

// encodeMapping serializes a global task placement table (8 bytes per
// task) for the header of physical file 0 and for the write open's
// forwarding of it to file 0's master.
func encodeMapping(m []FileLoc) []byte {
	buf := make([]byte, 8*len(m))
	for i, fl := range m {
		le().PutUint32(buf[8*i:], uint32(fl.File))
		le().PutUint32(buf[8*i+4:], uint32(fl.LocalRank))
	}
	return buf
}

// decodeMapping parses a placement table for ntasks tasks over nfiles
// physical files, validating exactly like parseHeader does for the stored
// copy: the byte count must match and every entry must point inside the
// multifile. Truncated buffers and out-of-range indices yield ErrCorrupt
// instead of a short or wild table — the mapped open's planner (where the
// reader count M differs from ntasks) trusts this table for every rank it
// places.
func decodeMapping(buf []byte, ntasks, nfiles int) ([]FileLoc, error) {
	if ntasks < 0 || len(buf) != 8*ntasks {
		return nil, fmt.Errorf("%w: mapping table holds %d bytes for %d tasks", ErrCorrupt, len(buf), ntasks)
	}
	m := make([]FileLoc, ntasks)
	for i := range m {
		m[i] = FileLoc{
			File:      int32(le().Uint32(buf[8*i:])),
			LocalRank: int32(le().Uint32(buf[8*i+4:])),
		}
		if m[i].File < 0 || int(m[i].File) >= nfiles ||
			m[i].LocalRank < 0 || int(m[i].LocalRank) >= ntasks {
			return nil, fmt.Errorf("%w: mapping entry %d = %+v", ErrCorrupt, i, m[i])
		}
	}
	return m, nil
}

// chunkHeader is the optional 64-byte self-describing header at the start
// of each chunk (paper §6: "add small pieces of metadata to each chunk so
// that the full metadata can be restored if needed").
type chunkHeader struct {
	GlobalRank int64
	Block      int64
	Bytes      int64 // -1 while the chunk is open
}

func (c *chunkHeader) encode() []byte {
	buf := make([]byte, chunkHeaderSize)
	copy(buf, magicChunk)
	le := binary.LittleEndian
	le.PutUint64(buf[8:], uint64(c.GlobalRank))
	le.PutUint64(buf[16:], uint64(c.Block))
	le.PutUint64(buf[24:], uint64(c.Bytes))
	le.PutUint32(buf[32:], crc32.ChecksumIEEE(buf[:32]))
	return buf
}

func parseChunkHeader(buf []byte) (*chunkHeader, bool) {
	if len(buf) < chunkHeaderSize || string(buf[:8]) != magicChunk {
		return nil, false
	}
	le := binary.LittleEndian
	if crc32.ChecksumIEEE(buf[:32]) != le.Uint32(buf[32:]) {
		return nil, false
	}
	return &chunkHeader{
		GlobalRank: int64(le.Uint64(buf[8:])),
		Block:      int64(le.Uint64(buf[16:])),
		Bytes:      int64(le.Uint64(buf[24:])),
	}, true
}

// fileName returns the physical name of file k in an n-file multifile
// (file 0 keeps the user-visible name, like SIONlib's ".000001" suffixes).
func fileName(base string, k int) string {
	if k == 0 {
		return base
	}
	return fmt.Sprintf("%s.%06d", base, k)
}

// le returns the byte order used throughout the format.
func le() binary.ByteOrder { return binary.LittleEndian }
