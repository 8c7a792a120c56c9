package sion

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/fsio"
)

// SerialFile is a serial (single-process) view of a whole multifile: every
// task's logical file is addressable through Seek (paper §3.2.3/§3.2.4,
// Listings 3 and 5). It is the foundation of the command-line utilities
// and of postprocessing tools such as trace analyzers.
type SerialFile struct {
	fsys    fsio.FileSystem
	name    string
	mode    Mode
	ntasks  int
	nfiles  int
	fsblk   int64
	flags   uint64
	mapping []FileLoc
	files   []*physFile
	closed  bool

	// Cursor state (Seek/Read/Write).
	curRank  int
	curBlock int
	curPos   int64

	// Write mode: per global rank, per block: high-water byte counts.
	written [][]int64

	// Write mode: write-behind staging for the cursor's contiguous run
	// (see buffer.go); nil = unbuffered.
	wstage *writeStage

	// Read mode: the M=1 mapped view — one read handle per task, sharing
	// one open file per segment (see mapped.go). The cursor operations
	// delegate to these handles, which also carry the per-rank read-ahead
	// stages.
	handles map[int]*File
}

// physFile is one physical file of the multifile in serial view.
type physFile struct {
	fh  fsio.File
	h   *header
	geo geometry
	m2  *meta2 // read mode only
}

// Create opens a multifile for serial writing (paper Listing 3: the serial
// open call receives the whole array of chunk sizes, one per task).
func Create(fsys fsio.FileSystem, name string, chunkSizes []int64, opts *Options) (*SerialFile, error) {
	if len(chunkSizes) == 0 {
		return nil, fmt.Errorf("sion: Create %s: no chunk sizes", name)
	}
	for i, cs := range chunkSizes {
		if cs <= 0 {
			return nil, fmt.Errorf("sion: Create %s: chunk size %d for task %d", name, cs, i)
		}
	}
	o, err := opts.withDefaults(len(chunkSizes), fsio.CapabilitiesOf(fsys))
	if err != nil {
		return nil, err
	}
	if o.Watermarks {
		// The serial writer has no Flush-time commit machinery; setting the
		// header flag without it would promise tail readers a sidecar that
		// never exists.
		return nil, fmt.Errorf("sion: Create %s: Watermarks require a parallel write handle (ParOpen)", name)
	}
	fsblk := o.FSBlockSize
	if fsblk <= 0 {
		fsblk = fsys.BlockSize(name)
	}
	ntasks := len(chunkSizes)

	// Place each task, grouping local ranks in global-rank order per file.
	mapping := make([]FileLoc, ntasks)
	counts := make([]int32, o.NFiles)
	for r := range mapping {
		fn := o.Mapping(r, ntasks, o.NFiles)
		if fn < 0 || fn >= o.NFiles {
			return nil, fmt.Errorf("sion: Create %s: mapping sent task %d to file %d of %d", name, r, fn, o.NFiles)
		}
		mapping[r] = FileLoc{File: int32(fn), LocalRank: counts[fn]}
		counts[fn]++
	}
	for k, c := range counts {
		if c == 0 {
			return nil, fmt.Errorf("sion: Create %s: physical file %d has no tasks", name, k)
		}
	}

	sf := &SerialFile{
		fsys: fsys, name: name, mode: WriteMode,
		ntasks: ntasks, nfiles: o.NFiles, fsblk: fsblk, flags: o.flags(),
		mapping: mapping,
		files:   make([]*physFile, o.NFiles),
		written: make([][]int64, ntasks),
		curRank: -1,
	}
	for k := 0; k < o.NFiles; k++ {
		h := &header{
			FSBlockSize:  fsblk,
			NTasksGlobal: int32(ntasks),
			NTasksLocal:  counts[k],
			NFiles:       int32(o.NFiles),
			FileNum:      int32(k),
			Flags:        o.flags(),
			GlobalRanks:  make([]int64, counts[k]),
			ChunkSizes:   make([]int64, counts[k]),
		}
		for r := range mapping {
			if int(mapping[r].File) == k {
				h.GlobalRanks[mapping[r].LocalRank] = int64(r)
				h.ChunkSizes[mapping[r].LocalRank] = chunkSizes[r]
			}
		}
		if k == 0 {
			h.Mapping = mapping
		}
		fh, err := fsys.Create(fileName(name, k))
		if err != nil {
			sf.abort()
			return nil, fmt.Errorf("sion: Create %s: %w", name, err)
		}
		if _, err := fh.WriteAt(h.encode(), 0); err != nil {
			fh.Close()
			sf.abort()
			return nil, fmt.Errorf("sion: Create %s: header: %w", name, err)
		}
		sf.files[k] = &physFile{fh: fh, h: h, geo: newGeometry(h)}
	}
	if o.BufferSize != 0 {
		if err := sf.SetBufferSize(o.BufferSize); err != nil {
			sf.abort()
			return nil, err
		}
	}
	return sf, nil
}

// Open opens a multifile for serial reading with the global view
// (paper Listing 5). It is the M=1 special case of mapped open
// (see mapped.go): one reader owning every task's logical file.
func Open(fsys fsio.FileSystem, name string) (*SerialFile, error) {
	ml, err := openMappedLocal(fsys, name, nil)
	if err != nil {
		return nil, fmt.Errorf("sion: Open %s: %w", name, err)
	}
	sf := &SerialFile{
		fsys: fsys, name: name, mode: ReadMode,
		ntasks: ml.ntasks, nfiles: ml.nfiles,
		fsblk: ml.fsblk, flags: ml.flags,
		mapping: ml.mapping,
		files:   make([]*physFile, ml.nfiles),
		handles: ml.handles,
		curRank: -1,
	}
	for k := range sf.files {
		sf.files[k] = ml.segs[k]
	}
	return sf, nil
}

// OpenRank opens the logical file of one task for serial reading
// (sion_open_rank, paper Listing 4): the mapped view of a single owned
// rank. It loads only the metadata of the physical file containing that
// task (plus the mapping from segment 0).
func OpenRank(fsys fsio.FileSystem, name string, rank int) (*File, error) {
	ml, err := openMappedLocal(fsys, name, []int{rank})
	if err != nil {
		return nil, fmt.Errorf("sion: OpenRank %s: %w", name, err)
	}
	// The single handle takes over its segment's file; no container stays
	// behind to close it.
	f := ml.handles[rank]
	f.fhShared = false
	return f, nil
}

func (sf *SerialFile) abort() {
	for _, pf := range sf.files {
		if pf != nil {
			pf.fh.Close()
		}
	}
	sf.closed = true
}

// --- Metadata ---------------------------------------------------------------

// Locations describes the multifile layout (sion_get_locations): per task,
// the physical placement, chunk sizes, and per-block byte counts.
type Locations struct {
	NTasks      int
	NFiles      int
	FSBlockSize int64
	ChunkSizes  []int64   // per task (requested)
	Placement   []FileLoc // per task
	BlockBytes  [][]int64 // per task, per block (read mode; nil when writing)
}

// Locations returns the multifile layout metadata.
func (sf *SerialFile) Locations() Locations {
	loc := Locations{
		NTasks:      sf.ntasks,
		NFiles:      sf.nfiles,
		FSBlockSize: sf.fsblk,
		ChunkSizes:  make([]int64, sf.ntasks),
		Placement:   append([]FileLoc(nil), sf.mapping...),
		BlockBytes:  make([][]int64, sf.ntasks),
	}
	for r := 0; r < sf.ntasks; r++ {
		pf := sf.files[sf.mapping[r].File]
		li := int(sf.mapping[r].LocalRank)
		loc.ChunkSizes[r] = pf.h.ChunkSizes[li]
		if sf.mode == ReadMode {
			loc.BlockBytes[r] = append([]int64(nil), pf.m2.BlockBytes[li]...)
		}
	}
	return loc
}

// NTasks returns the number of logical task-local files.
func (sf *SerialFile) NTasks() int { return sf.ntasks }

// NFiles returns the number of physical files.
func (sf *SerialFile) NFiles() int { return sf.nfiles }

// FSBlockSize returns the alignment block size.
func (sf *SerialFile) FSBlockSize() int64 { return sf.fsblk }

// RankBytes returns the total bytes stored for one task.
func (sf *SerialFile) RankBytes(rank int) int64 {
	if rank < 0 || rank >= sf.ntasks {
		return 0
	}
	if sf.mode == ReadMode {
		return sf.handles[rank].LogicalSize()
	}
	var total int64
	for _, b := range sf.written[rank] {
		total += b
	}
	return total
}

// --- Cursor I/O ---------------------------------------------------------------

// Seek positions the cursor at (rank, block, pos) within the multifile
// (sion_seek). In write mode, blocks beyond the currently allocated count
// are allowed and extend the task's logical file.
func (sf *SerialFile) Seek(rank, block int, pos int64) error {
	if sf.closed {
		return fmt.Errorf("sion: %s: seek on closed file", sf.name)
	}
	if rank < 0 || rank >= sf.ntasks || block < 0 || pos < 0 {
		return fmt.Errorf("sion: %s: Seek(%d,%d,%d) out of range", sf.name, rank, block, pos)
	}
	if sf.mode == ReadMode {
		// Delegate to the rank's mapped handle, which validates the
		// position against its recorded data and keeps its own cursor.
		// Leaving a rank releases its read-ahead buffer, so a scan over
		// many tasks holds at most one staging buffer at a time.
		if err := sf.handles[rank].Seek(block, pos); err != nil {
			return err
		}
		if sf.curRank >= 0 && sf.curRank != rank {
			sf.handles[sf.curRank].releaseStage()
		}
		sf.curRank = rank
		return nil
	}
	pf := sf.files[sf.mapping[rank].File]
	li := int(sf.mapping[rank].LocalRank)
	cap := pf.geo.capacity(li)
	if pos > cap {
		return fmt.Errorf("sion: %s: Seek pos %d beyond chunk capacity %d", sf.name, pos, cap)
	}
	// A moved cursor ends the write stage's contiguous run.
	if err := sf.wstage.flush(); err != nil {
		return err
	}
	sf.curRank, sf.curBlock, sf.curPos = rank, block, pos
	return nil
}

func (sf *SerialFile) cursorFile() (*physFile, int) {
	pf := sf.files[sf.mapping[sf.curRank].File]
	return pf, int(sf.mapping[sf.curRank].LocalRank)
}

// Write stores p at the cursor, spanning into subsequent blocks of the
// same task as needed, and advances the cursor.
func (sf *SerialFile) Write(p []byte) (int, error) {
	if sf.closed || sf.mode != WriteMode {
		return 0, fmt.Errorf("sion: %s: serial write on %s handle", sf.name, sf.mode)
	}
	if sf.curRank < 0 {
		return 0, fmt.Errorf("sion: %s: Write before Seek", sf.name)
	}
	if sf.wstage != nil {
		return sf.stagedWrite(p)
	}
	pf, li := sf.cursorFile()
	cap := pf.geo.capacity(li)
	total := 0
	for len(p) > 0 {
		if sf.curPos == cap {
			sf.curBlock++
			sf.curPos = 0
		}
		w := int64(len(p))
		if w > cap-sf.curPos {
			w = cap - sf.curPos
		}
		off := pf.geo.dataOff(li, sf.curBlock) + sf.curPos
		if _, err := pf.fh.WriteAt(p[:w], off); err != nil {
			return total, fmt.Errorf("sion: %s: serial write: %w", sf.name, err)
		}
		sf.noteWritten(sf.curRank, sf.curBlock, sf.curPos+w)
		sf.curPos += w
		total += int(w)
		p = p[w:]
	}
	return total, nil
}

// noteWritten records the high-water mark of (rank, block).
func (sf *SerialFile) noteWritten(rank, block int, bytes int64) {
	bb := sf.written[rank]
	for len(bb) <= block {
		bb = append(bb, 0)
	}
	if bytes > bb[block] {
		bb[block] = bytes
	}
	sf.written[rank] = bb
}

// Read fills p from the cursor, spanning blocks of the current task, and
// advances the cursor. It returns io.EOF at the end of the task's data.
// The read itself is served by the task's mapped rank handle (including
// its read-ahead stage, when one is armed via SetBufferSize).
func (sf *SerialFile) Read(p []byte) (int, error) {
	if sf.closed || sf.mode != ReadMode {
		return 0, fmt.Errorf("sion: %s: serial read on %s handle", sf.name, sf.mode)
	}
	if sf.curRank < 0 {
		return 0, fmt.Errorf("sion: %s: Read before Seek", sf.name)
	}
	return sf.handles[sf.curRank].Read(p)
}

// ReadRank returns the complete logical file of one task (concatenation of
// all its chunks' used bytes) — a convenience built on Seek/Read used by
// the split utility and tests.
func (sf *SerialFile) ReadRank(rank int) ([]byte, error) {
	if err := sf.Seek(rank, 0, 0); err != nil {
		return nil, err
	}
	out := make([]byte, sf.RankBytes(rank))
	n, err := io.ReadFull(sf, out)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return out[:n], nil
}

// Close finishes the serial handle. In write mode it writes each physical
// file's metablock 2 and trailer.
func (sf *SerialFile) Close() error {
	if sf.closed {
		return nil
	}
	sf.closed = true
	var firstErr error
	firstErr = sf.wstage.flush()
	sf.wstage.release()
	sf.wstage = nil
	for _, h := range sf.handles {
		h.closed = true
		h.dropStaging() // releases any per-rank read-ahead stages
	}
	if sf.mode == WriteMode {
		for k, pf := range sf.files {
			nlocal := int(pf.h.NTasksLocal)
			m2 := &meta2{BlockBytes: make([][]int64, nlocal)}
			maxBlocks := 0
			for r := range sf.mapping {
				if int(sf.mapping[r].File) != k {
					continue
				}
				bb := sf.written[r]
				if len(bb) == 0 {
					bb = []int64{0}
				}
				m2.BlockBytes[sf.mapping[r].LocalRank] = bb
				if len(bb) > maxBlocks {
					maxBlocks = len(bb)
				}
			}
			// Chunk headers for every touched block, sealed with counts.
			if sf.flags&flagChunkHeaders != 0 {
				if err := sf.sealAllChunks(k, m2); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			at := pf.geo.start + pf.geo.stride*int64(maxBlocks)
			if _, err := writeTail(pf.fh, m2, at); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, pf := range sf.files {
		if err := pf.fh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sealAllChunks writes finalized chunk headers for every block recorded in
// m2 of physical file k.
func (sf *SerialFile) sealAllChunks(k int, m2 *meta2) error {
	pf := sf.files[k]
	for li, bb := range m2.BlockBytes {
		for b, bytes := range bb {
			ch := chunkHeader{GlobalRank: pf.h.GlobalRanks[li], Block: int64(b), Bytes: bytes}
			if _, err := pf.fh.WriteAt(ch.encode(), pf.geo.chunkOff(li, b)); err != nil {
				return fmt.Errorf("sion: %s: sealing chunk headers: %w", sf.name, err)
			}
		}
	}
	return nil
}

// PhysicalNames lists the physical file names of a multifile with n
// segments (helper for utilities).
func PhysicalNames(name string, nfiles int) []string {
	out := make([]string, nfiles)
	for k := range out {
		out[k] = fileName(name, k)
	}
	return out
}

// sortedRanksOf returns the global ranks stored in physical file k,
// ordered by local rank (utility helper).
func (sf *SerialFile) sortedRanksOf(k int) []int {
	var ranks []int
	for r, loc := range sf.mapping {
		if int(loc.File) == k {
			ranks = append(ranks, r)
		}
	}
	sort.Slice(ranks, func(i, j int) bool {
		return sf.mapping[ranks[i]].LocalRank < sf.mapping[ranks[j]].LocalRank
	})
	return ranks
}
