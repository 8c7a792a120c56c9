package sion

import (
	"fmt"
	"io"

	"repro/internal/fsio"
)

// SerialFile is a serial (single-process) view of a whole multifile: every
// task's logical file is addressable through Seek (paper §3.2.3/§3.2.4,
// Listings 3 and 5). It is the foundation of the command-line utilities
// and of postprocessing tools such as trace analyzers.
//
// It is the no-communicator mapped case (see mapped.go): one File per
// task over segments shared by every task's view — read views from Open,
// write views from Create. The cursor delegates to the current task's
// handle, which also carries that task's staging buffer.
type SerialFile struct {
	mappedLocal
	fsys    fsio.FileSystem
	name    string
	mode    Mode
	closed  bool
	curRank int // the task the cursor is in; -1 before the first Seek
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
	caps := fsio.CapabilitiesOf(fsys)
	o, err := opts.withDefaults(len(chunkSizes), caps)
	if err != nil {
		return nil, err
	}
	if o.Watermarks {
		// The serial writer has no Flush-time commit machinery; setting the
		// header flag without it would promise tail readers a sidecar that
		// never exists.
		return nil, fmt.Errorf("sion: Create %s: Watermarks require a parallel write handle (ParOpen)", name)
	}
	fsblk := o.fsBlockSize(fsys, name)
	if fsblk <= 0 {
		return nil, fmt.Errorf("sion: Create %s: bad FS block size %d", name, fsblk)
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

	ml := mappedLocal{
		ntasks: ntasks, nfiles: o.NFiles, fsblk: fsblk, flags: o.flags(),
		mapping: mapping,
		segs:    make([]*physFile, o.NFiles),
		handles: make(map[int]*File, ntasks),
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
			ml.closeAll()
			return nil, fmt.Errorf("sion: Create %s: %w", name, err)
		}
		if _, err := fh.WriteAt(h.encode(), 0); err != nil {
			fh.Close()
			ml.closeAll()
			return nil, fmt.Errorf("sion: Create %s: header: %w", name, err)
		}
		pf := &physFile{fh: fh, h: h, geo: newGeometry(h)}
		ml.segs[k] = pf
		for li, g := range h.GlobalRanks {
			f := pf.rankView(fsys, caps, name, k, li, int(g))
			f.initStaging(o.BufferSize)
			ml.handles[int(g)] = f
		}
	}
	return &SerialFile{mappedLocal: ml, fsys: fsys, name: name, mode: WriteMode, curRank: -1}, nil
}

// Open opens a multifile for serial reading with the global view
// (paper Listing 5). It is the M=1 special case of mapped open
// (see mapped.go): one reader owning every task's logical file.
func Open(fsys fsio.FileSystem, name string) (*SerialFile, error) {
	ml, err := openMappedLocal(fsys, name, nil)
	if err != nil {
		return nil, fmt.Errorf("sion: Open %s: %w", name, err)
	}
	return &SerialFile{mappedLocal: *ml, fsys: fsys, name: name, mode: ReadMode, curRank: -1}, nil
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
		pf := sf.segs[sf.mapping[r].File]
		li := int(sf.mapping[r].LocalRank)
		loc.ChunkSizes[r] = pf.h.ChunkSizes[li]
		if sf.mode == ReadMode {
			loc.BlockBytes[r] = append([]int64(nil), pf.m2.BlockBytes[li]...)
		}
	}
	return loc
}

// RankBytes returns the total bytes stored for one task.
func (sf *SerialFile) RankBytes(rank int) int64 {
	if rank < 0 || rank >= sf.ntasks {
		return 0
	}
	h := sf.handles[rank]
	bb := h.readBytes
	if sf.mode == WriteMode {
		bb = h.blockBytes
	}
	var total int64
	for _, b := range bb {
		total += b
	}
	return total
}

// --- Cursor I/O ---------------------------------------------------------------

// Seek positions the cursor at (rank, block, pos) within the multifile
// (sion_seek). In write mode, blocks beyond the currently allocated count
// are allowed and extend the task's logical file. Leaving a rank flushes
// and releases its staging buffer, so a serial pass over many tasks holds
// at most one buffer at a time.
func (sf *SerialFile) Seek(rank, block int, pos int64) error {
	if sf.closed {
		return fmt.Errorf("sion: %s: seek on closed file", sf.name)
	}
	if rank < 0 || rank >= sf.ntasks || block < 0 || pos < 0 {
		return fmt.Errorf("sion: %s: Seek(%d,%d,%d) out of range", sf.name, rank, block, pos)
	}
	if sf.curRank >= 0 && sf.curRank != rank {
		if err := sf.handles[sf.curRank].releaseStage(); err != nil {
			return err
		}
	}
	// The rank's handle validates the position: against its recorded data
	// when reading, against its chunk capacity when writing.
	var err error
	if sf.mode == ReadMode {
		err = sf.handles[rank].Seek(block, pos)
	} else {
		err = sf.handles[rank].seekWrite(block, pos)
	}
	if err != nil {
		return err
	}
	sf.curRank = rank
	return nil
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
	return sf.handles[sf.curRank].Write(p)
}

// Read fills p from the cursor, spanning blocks of the current task, and
// advances the cursor. It returns io.EOF at the end of the task's data.
// The read itself is served by the task's mapped rank handle (including
// its read-ahead stage, when one is armed).
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
// all its chunks' used bytes) — a convenience built on Seek/Read for
// callers that want a task's file in memory, such as examples/quickstart.
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

// Close finishes the serial handle. In write mode, once every task's
// handle has flushed, it seals each block's chunk header with its final
// count (a serial writer may have revisited the block) and writes each
// physical file's metablock 2 and trailer.
func (sf *SerialFile) Close() error {
	if sf.closed {
		return nil
	}
	sf.closed = true
	var firstErr error
	for _, h := range sf.handles {
		if err := h.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if sf.mode == WriteMode {
		for _, pf := range sf.segs {
			all := make([][]int64, len(pf.h.GlobalRanks))
			for li, g := range pf.h.GlobalRanks {
				h := sf.handles[int(g)]
				for b, n := range h.blockBytes {
					if err := h.sealBlock(b, n); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				all[li] = h.blockBytes
			}
			if err := writeMeta2(pf.fh, pf.geo, all); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, pf := range sf.segs {
		firstErr = closeKeep(pf.fh, firstErr)
	}
	return firstErr
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
