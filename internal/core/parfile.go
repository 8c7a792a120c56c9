package sion

import (
	"fmt"
	"io"

	"repro/internal/fsio"
	"repro/internal/mpi"
)

// Message tag used to forward the global mapping from world rank 0 to the
// master of physical file 0 when they differ (custom mappings).
const tagMapping = 4097

// File is a handle to one task's logical task-local file inside a
// multifile. In parallel mode it is obtained collectively from ParOpen;
// OpenRank returns the same type for serial task-local access
// (paper Listing 4), and a SerialFile drives one File per task in both
// modes: the serial writer's chunk writes are File writes.
//
// File implements io.Reader and io.Writer over the logical file: Write
// corresponds to sion_fwrite (it transparently spans chunk boundaries) and
// Read to sion_fread. For ANSI-C-style access within one chunk, use
// EnsureFreeSpace/BytesAvailInChunk and the same Write/Read calls.
type File struct {
	fsys fsio.FileSystem
	fh   fsio.File
	name string // logical multifile name (not the physical segment name)
	mode Mode

	comm  *mpi.Comm // global communicator (nil for every read handle)
	lcomm *mpi.Comm // tasks sharing this physical file (nil for reads)

	geo       geometry
	local     int // local rank within the physical file
	global    int // global task rank
	filenum   int
	nfiles    int
	fsblk     int64
	requested int64 // requested chunk size
	chunkHdrs bool
	closed    bool

	// Write state. A block's count is its high-water mark: a serial
	// writer may seek back inside a block it has written.
	curBlock   int
	pos        int64   // position within the current chunk's data area
	blockBytes []int64 // bytes written per block, for every block reached

	// Chunk-commit watermark state (Options.Watermarks; see watermark.go).
	// wm is armed on every rank that touches the physical file (direct
	// writers and collective collectors); collective members publish
	// through their collector instead. wmSealedTo counts the blocks
	// already committed as sealed, wmOpenBytes the last committed byte
	// count of the open block.
	wm          *wmWriter
	wmSealedTo  int
	wmOpenBytes int64

	// Read state.
	readBytes []int64 // bytes available per block (from metablock 2)

	// Collective mode. coll is the write-side state (collective.go; nil =
	// direct writes); collRead serves reads from the prefetched stream a
	// read-side collector scattered (mapped.go; nil = direct reads).
	// collLead reports whether this task collects its write group.
	coll     *collState
	collRead *collReadState
	collLead bool

	// Buffered staging for the direct path (see buffer.go): write-behind
	// (wstage) and read-ahead (rstage); nil = unbuffered. stagingOff
	// records an explicit SetBufferSize(0) opt-out, which NewKeyReader's
	// automatic read-ahead respects. directRead is DirectReadBytes of the
	// capability descriptor the open resolved, kept for a stage armed later.
	wstage     *writeStage
	rstage     *readStage
	stagingOff bool
	directRead int64

	// fhShared marks a rank handle whose fh belongs to a container (a
	// MappedFile or a SerialFile) that shares one open physical file among
	// several rank views; Close then leaves fh to the container. Read
	// handles from ParOpen and OpenRank own their fh.
	fhShared bool
}

var (
	_ io.Writer = (*File)(nil)
	_ io.Reader = (*File)(nil)
)

// ParOpen collectively opens a multifile for parallel access
// (sion_paropen_mpi). Every task of comm must call it with the same name
// and mode; fsys is the task's file-system binding. In write mode,
// opts.ChunkSize is the maximum number of bytes the calling task writes in
// one piece (it may differ between tasks). In read mode opts may be nil;
// geometry and task placement are recovered from the multifile metadata.
// Read mode is ParOpenMapped with every task owning its own rank, so the
// communicator must have the writer task count (ParOpenMapped rescales),
// and the read handle's Close is not collective.
func ParOpen(comm *mpi.Comm, fsys fsio.FileSystem, name string, mode Mode, opts *Options) (*File, error) {
	switch mode {
	case WriteMode:
		return parOpenWrite(comm, fsys, name, opts)
	case ReadMode:
		mf, err := openMapped(comm, fsys, name, []int64{claimOwnRank, int64(comm.Rank())}, opts)
		if err != nil {
			return nil, err
		}
		f := mf.handles[0] // takes over its physical file; mf is dropped
		f.fhShared = false
		return f, nil
	default:
		return nil, fmt.Errorf("sion: ParOpen %s: unsupported mode %v", name, mode)
	}
}

func parOpenWrite(comm *mpi.Comm, fsys fsio.FileSystem, name string, opts *Options) (*File, error) {
	// Rank 0's FS block size (SIONlib: fstat on the target file system,
	// paper §3.1) and capability descriptor decide the geometry for all
	// tasks, whose own fsio stacks may differ: one broadcast.
	var geo []int64
	if comm.Rank() == 0 {
		var fsblk int64
		if opts != nil {
			fsblk = opts.FSBlockSize
		}
		if fsblk <= 0 {
			fsblk = fsys.BlockSize(name)
		}
		c := fsio.CapabilitiesOf(fsys)
		geo = []int64{fsblk, c.PreferredRequestBytes, c.MaxReadBytes, c.PartSizeFloor, c.WriteFanout}
	}
	geo = comm.BcastInt64s(0, geo)
	fsblk := geo[0]
	caps := fsio.Capabilities{PreferredRequestBytes: geo[1], MaxReadBytes: geo[2], PartSizeFloor: geo[3], WriteFanout: geo[4]}
	o, err := opts.withDefaults(comm.Size(), caps)
	if err != nil {
		return nil, err
	}
	if fsblk <= 0 {
		return nil, fmt.Errorf("sion: ParOpen %s: bad FS block size %d", name, fsblk)
	}

	// Task → physical file assignment and the per-file sub-communicator
	// (the paper's lcom, §3.2.1).
	filenum := o.Mapping(comm.Rank(), comm.Size(), o.NFiles)
	if filenum < 0 || filenum >= o.NFiles {
		filenum = 0 // collective safety: a broken MapFunc must not deadlock
	}
	lcomm := comm.Split(filenum, comm.Rank())

	// Collect the global mapping at world rank 0 and forward it to the
	// master of physical file 0, which stores it in its header.
	mapEnc := comm.GatherInt64Slice(0, []int64{int64(filenum), int64(lcomm.Rank())})
	var mapping []FileLoc
	file0Master := 0
	if comm.Rank() == 0 {
		mapping = make([]FileLoc, comm.Size())
		for r, fl := range mapEnc {
			mapping[r] = FileLoc{File: int32(fl[0]), LocalRank: int32(fl[1])}
			if fl[0] == 0 && fl[1] == 0 {
				file0Master = r
			}
		}
	}
	isFile0Master := filenum == 0 && lcomm.Rank() == 0
	if comm.Rank() == 0 && file0Master != 0 {
		comm.Send(file0Master, tagMapping, encodeMapping(mapping))
		mapping = nil
	}
	var mapErr error
	if isFile0Master && comm.Rank() != 0 {
		mapping, mapErr = decodeMapping(comm.Recv(0, tagMapping), comm.Size(), o.NFiles)
	}

	// Local master gathers requested chunk sizes (paper §3.1: "all tasks
	// send their requested chunk size to a master task").
	sizes := lcomm.GatherInt64Slice(0, []int64{int64(comm.Rank()), o.ChunkSize})

	f := &File{
		fsys: fsys, name: name, mode: WriteMode,
		comm: comm, lcomm: lcomm,
		local: lcomm.Rank(), global: comm.Rank(),
		filenum: filenum, nfiles: o.NFiles, fsblk: fsblk,
		requested: o.ChunkSize, chunkHdrs: o.ChunkHeaders,
	}

	// The master creates the physical file, writes metablock 1, and
	// scatters each task's chunk address (paper §3.1).
	physName := fileName(name, filenum)
	var geos [][]int64
	status := int64(0)
	var cause error // the master's own failure behind a nonzero status
	if mapErr != nil {
		status, cause = 4, mapErr // forwarded mapping failed validation at file 0's master
	}
	if f.local == 0 {
		h := &header{
			FSBlockSize:  fsblk,
			NTasksGlobal: int32(comm.Size()),
			NTasksLocal:  int32(lcomm.Size()),
			NFiles:       int32(o.NFiles),
			FileNum:      int32(filenum),
			Flags:        o.flags(),
			GlobalRanks:  make([]int64, lcomm.Size()),
			ChunkSizes:   make([]int64, lcomm.Size()),
			Mapping:      mapping,
		}
		for i, gs := range sizes {
			h.GlobalRanks[i] = gs[0]
			h.ChunkSizes[i] = gs[1]
			if gs[1] <= 0 {
				status = 1
			}
		}
		var fh fsio.File
		if status == 0 {
			if fh, cause = fsys.Create(physName); cause != nil {
				status = 2
			} else if _, cause = fh.WriteAt(h.encode(), 0); cause != nil {
				status = 3
				fh.Close()
			}
		}
		if status == 0 && o.Watermarks {
			// Tail readers parse the segment header while the file is still
			// being written, so it must be durable before any commit is; the
			// sidecar must exist (with a durable header) before the scatter
			// releases the other ranks to open it.
			var wfh fsio.File
			if cause = fh.Sync(); cause == nil {
				wfh, cause = createWM(fsys, name, filenum, lcomm.Size())
			}
			if cause != nil {
				status = 5
				fh.Close()
			} else {
				f.wm = newWMWriter(wfh, lcomm.Size())
			}
		}
		geos = make([][]int64, lcomm.Size())
		if status == 0 {
			f.fh = fh
			f.geo = newGeometry(h)
			// Resolve the collector group size here, where the full chunk
			// table is known, so CollectorAuto is consistent across the
			// group even with per-task chunk sizes.
			group := int64(resolveCollectorGroup(o.CollectorGroup, lcomm.Size(), f.geo.stride, fsblk))
			for i := range geos {
				geos[i] = []int64{status, f.geo.start, f.geo.stride, f.geo.aligned[i], f.geo.prefix[i], group}
			}
		} else {
			for i := range geos {
				geos[i] = []int64{status, 0, 0, 0, 0, 0}
			}
		}
	}
	mine := lcomm.ScatterInt64Slice(0, geos)
	group := int(mine[5])
	switch {
	case mine[0] != 0:
		err = withCause(fmt.Errorf("sion: ParOpen %s for write failed (status %d; invalid chunk size or create error)", name, mine[0]), cause)
	case f.local != 0:
		// Non-masters keep a single-entry geometry view (index 0); the
		// master holds the full per-task table, in which its own chunk is
		// also entry 0 (the master is always local rank 0).
		f.geo = geometry{
			fsblk:   fsblk,
			start:   mine[1],
			stride:  mine[2],
			aligned: []int64{mine[3]},
			prefix:  []int64{mine[4]},
			headers: o.ChunkHeaders,
		}
		// In collective mode only the collectors (group leads) touch the
		// physical file; other members route everything through frames.
		if group <= 1 || f.local%group == 0 {
			err = f.openShared(physName, o.Watermarks)
		}
	}
	if err == nil {
		f.blockBytes = []int64{0}
		err = f.enterBlock(0)
	}
	if err == nil && o.AsyncCollective && group > 1 && f.local%group == 0 && comm.Proc() != nil {
		if _, ok := fsys.(workerSpawner); !ok {
			err = fmt.Errorf("sion: ParOpen %s: %w (%T)", name, errNoWorker, fsys)
		}
	}

	// Fail together: a rank whose step failed would leave the others
	// blocked in Close's collectives, so every task learns of any failure
	// here and closes what it opened. The failing task returns its cause.
	failed := int64(0)
	if err != nil {
		failed = 1
	}
	if comm.AllreduceInt64(mpi.OpMax, failed) != 0 {
		if f.wm != nil {
			f.wm.close()
		}
		closeKeep(f.fh, nil)
		if err == nil {
			err = fmt.Errorf("sion: ParOpen %s for write failed on another task", name)
		}
		return nil, err
	}
	f.initCollective(group, o.AsyncCollective)
	f.initStaging(o.BufferSize)
	return f, nil
}

// withCause wraps cause, when this rank holds one, into err, the error of
// a failure status the ranks share: a status code crosses ranks, an error
// value does not, so only the rank that failed can return an error that
// errors.Is traces to the cause.
func withCause(err, cause error) error {
	if cause == nil {
		return err
	}
	return fmt.Errorf("%w: %w", err, cause)
}

// openShared opens a non-master's handles on the physical file the master
// created, and on its watermark sidecar when commits are on.
func (f *File) openShared(physName string, watermarks bool) error {
	fh, err := f.fsys.OpenRW(physName)
	if err != nil {
		return fmt.Errorf("sion: ParOpen %s: opening physical file: %w", f.name, err)
	}
	f.fh = fh
	if watermarks {
		// The master created the sidecar before the scatter, so it exists
		// by the time any non-master gets here.
		wfh, err := f.fsys.OpenRW(wmName(f.name, f.filenum))
		if err != nil {
			return fmt.Errorf("sion: ParOpen %s: opening watermark sidecar: %w", f.name, err)
		}
		f.wm = newWMWriter(wfh, f.lcomm.Size())
	}
	return nil
}

// resolveCollectorGroup turns the CollectorGroup option into the effective
// group size for a physical file with ntasksLocal tasks and the given
// block stride (= sum of aligned chunk sizes).
func resolveCollectorGroup(opt, ntasksLocal int, stride, fsblk int64) int {
	switch {
	case opt == CollectorAuto:
		return autoCollectorGroup(ntasksLocal, stride/int64(ntasksLocal), fsblk)
	case opt > 1:
		return opt
	default:
		return 1
	}
}

// geoIndex is the index of this task's chunk in its geometry tables.
// It is always 0: non-masters and every rank view (mapped, serial read
// and serial write) carry single-entry views, and the ParOpen write
// master (local rank 0) is entry 0 of the full table it keeps for writing
// metablock 2.
const geoIndex = 0

// --- Accessors -------------------------------------------------------------

// NumFiles returns the number of physical files of the multifile.
func (f *File) NumFiles() int { return f.nfiles }

// FSBlockSize returns the block size chunks are aligned to.
func (f *File) FSBlockSize() int64 { return f.fsblk }

// ChunkCapacity returns the usable bytes per chunk for this task.
func (f *File) ChunkCapacity() int64 { return f.geo.capacity(geoIndex) }

// --- Write path -------------------------------------------------------------

func (f *File) checkOpen(want Mode) error {
	if f.closed {
		return fmt.Errorf("sion: %s: handle is closed", f.name)
	}
	if f.mode != want {
		return fmt.Errorf("sion: %s: operation requires %s mode, handle is %s", f.name, want, f.mode)
	}
	return nil
}

// EnsureFreeSpace guarantees that n bytes fit into the current chunk,
// allocating a new chunk (block) if necessary (sion_ensure_free_space).
// n must not exceed the chunk capacity; use Write for larger records.
func (f *File) EnsureFreeSpace(n int64) error {
	if err := f.checkOpen(WriteMode); err != nil {
		return err
	}
	cap := f.ChunkCapacity()
	if n < 0 || n > cap {
		return fmt.Errorf("sion: %s: EnsureFreeSpace(%d) exceeds chunk capacity %d (use Write to span chunks)", f.name, n, cap)
	}
	if f.pos+n > cap {
		if err := f.advanceBlock(); err != nil {
			return err
		}
	}
	return nil
}

// BytesAvailInChunk reports the bytes left in the current chunk
// (sion_bytes_avail_in_chunk): write mode counts remaining capacity, read
// mode counts unread bytes recorded in the metadata.
func (f *File) BytesAvailInChunk() int64 {
	if f.mode == WriteMode {
		return f.ChunkCapacity() - f.pos
	}
	if f.curBlock >= len(f.readBytes) {
		return 0
	}
	return f.readBytes[f.curBlock] - f.pos
}

// Write appends p to the task's logical file, transparently splitting the
// data across chunk boundaries (sion_fwrite).
func (f *File) Write(p []byte) (int, error) {
	if err := f.checkOpen(WriteMode); err != nil {
		return 0, err
	}
	if f.collectiveEnabled() {
		return f.collWrite(p)
	}
	if f.buffered() {
		return f.stagedWrite(p)
	}
	total := 0
	for len(p) > 0 {
		avail := f.ChunkCapacity() - f.pos
		if avail == 0 {
			if err := f.advanceBlock(); err != nil {
				return total, err
			}
			avail = f.ChunkCapacity()
		}
		w := int64(len(p))
		if w > avail {
			w = avail
		}
		off := f.dataOff() + f.pos
		if _, err := f.fh.WriteAt(p[:w], off); err != nil {
			return total, fmt.Errorf("sion: %s: chunk write: %w", f.name, err)
		}
		f.pos += w
		f.notePos()
		total += int(w)
		p = p[w:]
	}
	return total, nil
}

// WriteSynthetic writes n synthetic zero bytes through the identical chunk
// logic (used by the at-scale benchmark harness; see fsio.File). On a
// buffered handle it first flushes the staging buffer and then bypasses
// it: the synthetic path exists to avoid materializing payload bytes, and
// flushing first keeps the physical extents in write order (a stale stage
// would otherwise land behind the synthetic region later, at an offset
// that no longer matches the cursor).
func (f *File) WriteSynthetic(n int64) error {
	if err := f.checkOpen(WriteMode); err != nil {
		return err
	}
	if f.collectiveEnabled() {
		return fmt.Errorf("sion: %s: WriteSynthetic is unsupported in collective mode", f.name)
	}
	if err := f.wstage.flush(); err != nil {
		return err
	}
	for n > 0 {
		avail := f.ChunkCapacity() - f.pos
		if avail == 0 {
			if err := f.advanceBlock(); err != nil {
				return err
			}
			avail = f.ChunkCapacity()
		}
		w := n
		if w > avail {
			w = avail
		}
		if err := f.fh.WriteZeroAt(w, f.dataOff()+f.pos); err != nil {
			return fmt.Errorf("sion: %s: chunk write: %w", f.name, err)
		}
		f.pos += w
		f.notePos()
		n -= w
	}
	return nil
}

// dataOff returns the file offset of the current position's chunk data.
func (f *File) dataOff() int64 { return f.geo.dataOff(geoIndex, f.curBlock) }

// notePos raises the current block's count to the cursor. A count is a
// high-water mark: after a serial Seek back inside a written block, a
// shorter write leaves the bytes beyond it recorded.
func (f *File) notePos() {
	if f.pos > f.blockBytes[f.curBlock] {
		f.blockBytes[f.curBlock] = f.pos
	}
}

// seekWrite moves the write cursor to (block, pos) for SerialFile.Seek.
// Staged bytes land first, and blocks not reached yet join the task's
// file with zero bytes.
func (f *File) seekWrite(block int, pos int64) error {
	if pos > f.ChunkCapacity() {
		return fmt.Errorf("sion: %s: Seek pos %d beyond chunk capacity %d", f.name, pos, f.ChunkCapacity())
	}
	if err := f.wstage.flush(); err != nil {
		return err
	}
	for len(f.blockBytes) <= block {
		f.blockBytes = append(f.blockBytes, 0)
	}
	f.curBlock, f.pos = block, pos
	return nil
}

// enterBlock initializes the chunk of block b (writes the open chunk
// header when enabled).
func (f *File) enterBlock(b int) error {
	f.curBlock = b
	f.pos = 0
	if !f.chunkHdrs || f.mode != WriteMode {
		return nil
	}
	ch := chunkHeader{GlobalRank: int64(f.global), Block: int64(b), Bytes: -1}
	if _, err := f.fh.WriteAt(ch.encode(), f.geo.chunkOff(geoIndex, b)); err != nil {
		return fmt.Errorf("sion: %s: chunk header: %w", f.name, err)
	}
	return nil
}

// sealBlock finalizes block b's chunk header with the written byte count.
func (f *File) sealBlock(b int, bytes int64) error {
	if !f.chunkHdrs {
		return nil
	}
	ch := chunkHeader{GlobalRank: int64(f.global), Block: int64(b), Bytes: bytes}
	if _, err := f.fh.WriteAt(ch.encode(), f.geo.chunkOff(geoIndex, b)); err != nil {
		return fmt.Errorf("sion: %s: sealing chunk header: %w", f.name, err)
	}
	return nil
}

// advanceBlock moves the task to its chunk in the next block (paper §3.1:
// "if a task wants to write more bytes than left in the current chunk, it
// can request a new chunk of the same size" — a whole new block is
// allocated logically; unused chunks remain file-system holes). A serial
// writer that sought back re-enters a block it has already reached.
func (f *File) advanceBlock() error {
	// Staged bytes of the finished chunk must land before the cursor moves
	// (they address the current block's data region).
	if err := f.wstage.flush(); err != nil {
		return err
	}
	if err := f.sealBlock(f.curBlock, f.blockBytes[f.curBlock]); err != nil {
		return err
	}
	if f.curBlock+1 == len(f.blockBytes) {
		f.blockBytes = append(f.blockBytes, 0)
	}
	return f.enterBlock(f.curBlock + 1)
}

// --- Read path --------------------------------------------------------------

// Read fills p from the task's logical file, transparently continuing into
// subsequent chunks (sion_fread). It returns io.EOF after the last byte.
func (f *File) Read(p []byte) (int, error) {
	if err := f.checkOpen(ReadMode); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		if f.curBlock >= len(f.readBytes) {
			break
		}
		avail := f.readBytes[f.curBlock] - f.pos
		if avail == 0 {
			f.curBlock++
			f.pos = 0
			continue
		}
		r := int64(len(p))
		if r > avail {
			r = avail
		}
		if rs := f.rstage; rs != nil && rs.covers(f.curBlock, f.pos, r) {
			// The common small-record case, without the descent through
			// readChunkAt and stagedReadAt.
			copy(p[:r], rs.data[f.pos-rs.start:])
		} else if err := f.readChunkAt(p[:r], f.curBlock, f.pos); err != nil {
			return total, fmt.Errorf("sion: %s: chunk read: %w", f.name, err)
		}
		f.pos += r
		total += int(r)
		p = p[r:]
	}
	if total == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return total, nil
}

// readChunkAt fills p from (block, pos) of this task's chunk data: from
// the collective-read prefetch buffer, the read-ahead stage (buffer.go),
// or the physical file directly.
func (f *File) readChunkAt(p []byte, block int, pos int64) error {
	if f.collRead != nil {
		off := f.collRead.base[block] + pos
		copy(p, f.collRead.buf[off:])
		return nil
	}
	if f.rstage != nil {
		return f.stagedReadAt(p, block, pos)
	}
	return readAtZeroFill(f.fh, p, f.geo.dataOff(geoIndex, block)+pos)
}

// ReadSynthetic consumes n logical bytes without materializing them,
// returning the count actually consumed (benchmark path). It bypasses the
// read-ahead stage by design: populating a cache with discarded bytes
// would charge the fetch twice, and the stage (keyed by absolute chunk
// positions) stays valid regardless of where the cursor lands.
func (f *File) ReadSynthetic(n int64) (int64, error) {
	if err := f.checkOpen(ReadMode); err != nil {
		return 0, err
	}
	var total int64
	for n > 0 {
		if f.curBlock >= len(f.readBytes) {
			break
		}
		avail := f.readBytes[f.curBlock] - f.pos
		if avail == 0 {
			f.curBlock++
			f.pos = 0
			continue
		}
		r := n
		if r > avail {
			r = avail
		}
		// In collective read mode the data was already fetched (and
		// metered) by the collector; consuming it is a memory operation.
		if f.collRead == nil {
			if _, err := f.fh.ReadDiscardAt(r, f.dataOff()+f.pos); err != nil {
				return total, err
			}
		}
		f.pos += r
		total += r
		n -= r
	}
	return total, nil
}

// EOF reports whether the task's logical file is exhausted (sion_feof).
// Like sion_feof, it advances the cursor to the next non-empty chunk when
// the current one is used up, so a subsequent BytesAvailInChunk reports
// the new chunk's content (paper Listing 2's read loop).
func (f *File) EOF() bool {
	if f.mode != ReadMode {
		return false
	}
	for f.curBlock < len(f.readBytes) {
		if f.pos < f.readBytes[f.curBlock] {
			return false
		}
		f.curBlock++
		f.pos = 0
	}
	return true
}

// Seek positions the read cursor at (block, pos) within this task's
// logical file. The start, (0, 0), is a position of every stream, also of
// a task that metablock 2 records with no block.
func (f *File) Seek(block int, pos int64) error {
	if err := f.checkOpen(ReadMode); err != nil {
		return err
	}
	if (block != 0 || pos != 0) && (block < 0 || block >= len(f.readBytes) || pos < 0 || pos > f.readBytes[block]) {
		return fmt.Errorf("sion: %s: Seek(%d,%d) outside recorded data", f.name, block, pos)
	}
	f.curBlock, f.pos = block, pos
	return nil
}

// --- Flush ------------------------------------------------------------------

// Flush forces written data toward the file system and surfaces deferred
// errors. Direct-mode handles sync the physical file. Asynchronous
// collective handles ship the member's partial staging buffer to its
// collector and, on a collector, report any background write error seen
// so far (the definitive status arrives at Close). Synchronous collective
// handles are a no-op: their data moves at Close by design.
func (f *File) Flush() error {
	if err := f.checkOpen(WriteMode); err != nil {
		return err
	}
	if f.collectiveEnabled() {
		if err := f.collFlush(); err != nil {
			return err
		}
		// A collector additionally publishes watermarks for the member
		// data its flusher has applied so far (no-op without Watermarks).
		return f.collCommitWatermarks(false)
	}
	if err := f.wstage.flush(); err != nil {
		return err
	}
	if err := f.fh.Sync(); err != nil {
		return err
	}
	// Commit ordering: the data sync above precedes the watermark cells,
	// which precede the sidecar sync inside wmCommitProgress.
	return f.wmCommitProgress(false)
}

// --- Close ------------------------------------------------------------------

// Close on a ParOpen write handle is collective (sion_parclose_mpi): the
// local master gathers every task's per-block byte counts and writes
// metablock 2 plus the trailer (paper §3.1: "the close operation is again
// collective to avoid the inefficiency of having all tasks write to the
// metadata block concurrently"). Close on a read handle is local: it
// writes nothing, so a task may close while its peers still read.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var firstErr error
	if f.mode == WriteMode && f.collectiveEnabled() {
		// Ship buffered data to the collectors, which write it.
		if err := f.collClose(); err != nil {
			firstErr = err
		}
		if err := f.collCommitWatermarks(true); err != nil && firstErr == nil {
			firstErr = err
		}
	} else if f.mode == WriteMode {
		if err := f.wstage.flush(); err != nil {
			firstErr = err
		}
		if err := f.sealBlock(f.curBlock, f.blockBytes[f.curBlock]); err != nil && firstErr == nil {
			firstErr = err
		}
		if f.wm != nil {
			// Final sealed commit: data durable first, then the cells.
			if err := f.fh.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := f.wmCommitProgress(true); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	f.dropStaging()
	if f.lcomm == nil { // every read handle and every serial write view
		if f.fhShared {
			return firstErr // the owning container closes the physical file
		}
		return closeKeep(f.fh, firstErr)
	}
	all := f.lcomm.GatherInt64Slice(0, f.blockBytes)
	if f.lcomm.Rank() == 0 {
		if err := writeMeta2(f.fh, f.geo, all); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := f.fh.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.wm != nil {
		if err := f.wm.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		f.wm = nil
	}
	// Collective completion plus a global barrier, matching
	// sion_parclose_mpi's semantics: no task returns from Close until every
	// physical file's data and metadata are complete, so a subsequent read
	// ParOpen (which starts at file 0's header, wherever the caller's own
	// data lives) can never observe a half-written multifile.
	f.lcomm.Barrier()
	f.comm.Barrier()
	return closeKeep(f.fh, firstErr)
}

// writeMeta2 writes a segment's metablock 2 (every local rank's per-block
// counts, all) and its trailer behind the last block any task reached.
func writeMeta2(fh fsio.File, geo geometry, all [][]int64) error {
	maxBlocks := 0
	for _, bb := range all {
		maxBlocks = max(maxBlocks, len(bb))
	}
	_, err := writeTail(fh, &meta2{BlockBytes: all}, geo.start+geo.stride*int64(maxBlocks))
	return err
}

// closeKeep closes fh (nil for collective group members, which never open
// the physical file) keeping the first error.
func closeKeep(fh fsio.File, firstErr error) error {
	if fh == nil {
		return firstErr
	}
	if err := fh.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
