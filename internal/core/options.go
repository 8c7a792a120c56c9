package sion

import (
	"errors"
	"fmt"

	"repro/internal/fsio"
)

// Mode selects the access mode of a multifile handle.
type Mode int

// Access modes.
const (
	WriteMode Mode = iota
	ReadMode
)

func (m Mode) String() string {
	switch m {
	case WriteMode:
		return "write"
	case ReadMode:
		return "read"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// MapFunc assigns a global task to a physical file (0 ≤ result < nfiles).
// The paper (§3.1) lets users influence the mapping, e.g. one physical
// file per I/O node on Blue Gene.
type MapFunc func(globalRank, ntasks, nfiles int) int

// ContiguousMap is the default task→file mapping: equal consecutive
// blocks of tasks per physical file.
func ContiguousMap(globalRank, ntasks, nfiles int) int {
	return globalRank * nfiles / ntasks
}

// Options configures ParOpen, ParOpenMapped and the serial Create. Every
// numeric field but ChunkSize reads one way: 0 decides from the backend
// and the geometry, a positive value is exact, and a named negative
// (CollectorAuto; BufferAuto, BufferOff) is valid only in its own field.
// withDefaults rejects any other value, naming the field.
type Options struct {
	// ChunkSize is the maximum number of bytes this task writes in one
	// piece (paper §3.1). It may differ between tasks. Required in write
	// mode; SIONlib rounds the allocation up to a multiple of the FS
	// block size.
	ChunkSize int64

	// FSBlockSize is the block size chunks are aligned to. 0 asks the
	// file system, like SIONlib's fstat call. The alignment experiments
	// (Table 1) set it.
	FSBlockSize int64

	// NFiles is the number of underlying physical files, at most one per
	// task. 0 picks the backend default: min(ntasks, WriteFanout) when the
	// backend's capability descriptor declares a write fanout, else 1 (see
	// withDefaults; a parallel open uses rank 0's descriptor).
	NFiles int

	// Mapping assigns tasks to physical files (default ContiguousMap).
	Mapping MapFunc

	// ChunkHeaders embeds a self-describing header in every chunk so
	// that metadata can be reconstructed by Repair after a failure
	// (paper §6 future work). Incompatible with CollectorGroup.
	ChunkHeaders bool

	// CollectorGroup enables collective I/O (SIONlib's sion_coll_fwrite
	// and its collective-read extension): groups of this many consecutive
	// local tasks designate their first member as a collector, and only
	// the collectors touch the physical file.
	//
	// In write mode, members buffer their data and ship it to the
	// collector, which issues one large write per member chunk region; the
	// resulting multifile is byte-identical to one written directly. In
	// read mode (ParOpen and ParOpenMapped alike) groups of consecutive
	// reader ranks route their reads through the collector, which fetches
	// one dense span per (file, block) covering the group's owned chunk
	// runs and scatters the data, so at most ⌈readers/group⌉ tasks open
	// the files or issue read requests. Members never open them at all.
	//
	// Memory: collective read prefetches each task's complete logical
	// stream into host memory at open (and the collector transiently
	// holds its whole group's streams). It is meant for the paper's
	// restart/trace read-back pattern with moderate per-task volumes; for
	// at-scale synthetic benchmarks (ReadSynthetic/WriteSynthetic, which
	// exist to avoid materializing payload bytes) use direct mode.
	//
	// Values: 0 and 1 are direct I/O; > 1 is a fixed group size;
	// CollectorAuto (-1) derives the group size from the chunk sizes and
	// the file-system block size, targeting collector regions of at least
	// autoCollectTargetBlocks FS blocks (the loosely-coupled aggregation
	// sizing of Zhang et al., arXiv:0901.0134). All tasks must pass the
	// same value (ParOpen is collective); the resolved size is computed
	// once and distributed, so -1 is consistent even when chunk sizes
	// differ between tasks. A write resolves it per physical file from that
	// file's chunks and task count; a read resolves it over all readers,
	// from file 0's average aligned chunk.
	CollectorGroup int

	// AsyncCollective upgrades collective write mode to double-buffered
	// asynchronous flushing: instead of holding all data until Close, a
	// member hands each full staging buffer (half a chunk capacity rounded
	// up to whole FS blocks, at most a few MiB) to its collector as it
	// writes. The collector takes the frames that have arrived at its own
	// Write and Flush and the rest at Close, and a background flusher (a
	// goroutine in real mode, a vtime worker in simulated mode) writes
	// them, overlapping computation with file I/O. Write errors detected
	// by the flusher are deferred and surfaced by Flush (collector-local)
	// and Close (all group members). Requires collectors; ignored in read
	// mode (collective reads always complete at open).
	AsyncCollective bool

	// Watermarks makes writers publish per-rank chunk-commit watermarks
	// into a per-segment sidecar file ("<segment>.wmk", see watermark.go):
	// on every Flush the data is synced first and a small commit record is
	// made durable afterwards, so readers can safely tail the multifile
	// while it is still being written — through Layout snapshots that grow
	// (LoadTailLayout, serve.New and its Poll) — without ever observing torn
	// records. Close publishes a final sealed commit. Only supported on
	// parallel write handles (ParOpen); the serial Create rejects it.
	Watermarks bool

	// BufferSize enables buffered staging I/O on the direct path (see
	// buffer.go): write-behind coalesces small Writes into a staging
	// buffer flushed in FS-block-aligned extents (at buffer-full, chunk
	// boundaries, Flush, and Close), and read-ahead fetches up to one
	// whole chunk region per file request, serving subsequent Reads from
	// memory. The multifile produced with any BufferSize is byte-identical
	// to the unbuffered one, and Seek/EOF/BytesAvailInChunk semantics are
	// unchanged.
	//
	// Values: 0 is the backend default — unbuffered one-request-per-call
	// behavior on POSIX-ish backends, BufferAuto on backends with a
	// multipart part-size floor (bufferOption); a positive value is
	// the exact buffer size in bytes; BufferAuto (-1) derives the size
	// from the chunk geometry — one chunk capacity rounded up to a
	// multiple of the FS block size, capped at bufferAutoCap — so a
	// small-record checkpoint issues roughly one write request per chunk
	// instead of one per record; BufferOff (-2) disables staging on every
	// backend, NewKeyReader's automatic read-ahead included.
	//
	// Collective handles ignore BufferSize: members route data through
	// frames that already coalesce at the collector, and collective reads
	// prefetch whole streams at open. Handles opened without options
	// (OpenRank) take the same values afterwards through SetBufferSize. A
	// direct-mode ParOpenMapped arms one read-ahead stage per owned rank
	// handle.
	BufferSize int64
}

// CollectorAuto selects the collector group size automatically
// (Options.CollectorGroup = -1).
const CollectorAuto = -1

// autoCollectTargetBlocks is the auto-tuning target: each collector region
// (group size × aligned chunk) should cover at least this many FS blocks,
// so a collector write is large enough to amortize the request path.
const autoCollectTargetBlocks = 4

// autoCollectorGroup derives the collector group size from the average
// aligned chunk size of a physical file: enough members that one
// collector region spans autoCollectTargetBlocks FS blocks, at most one
// per local task. An aligned chunk is at least one FS block, so the
// result is 1 to autoCollectTargetBlocks.
func autoCollectorGroup(ntasksLocal int, avgAligned, fsblk int64) int {
	g := int((autoCollectTargetBlocks*fsblk + avgAligned - 1) / avgAligned)
	return min(g, ntasksLocal)
}

// collective reports whether the options ask for collectors: CollectorGroup
// 0 and 1 are both direct I/O.
func (o *Options) collective() bool {
	return o.CollectorGroup > 1 || o.CollectorGroup == CollectorAuto
}

// checkOption is the one rule for a numeric Options field: 0 and the
// positive values are valid, and below 0 only the named values down to
// least.
func checkOption(field string, v, least int64) error {
	if v < least {
		return fmt.Errorf("%s %d is neither 0, positive nor a named value", field, v)
	}
	return nil
}

// bufferOption checks a BufferSize, from Options or SetBufferSize alike,
// and resolves 0 against the backend: BufferAuto on one with a multipart
// part-size floor (sub-part writes pay staged copies there), else
// unbuffered.
func bufferOption(n int64, caps fsio.Capabilities) (int64, error) {
	if n == 0 && caps.PartSizeFloor > 0 {
		return BufferAuto, nil
	}
	return n, checkOption("BufferSize", n, BufferOff)
}

// withDefaults checks the options and resolves their zero values against
// the task count and the backend's capability descriptor (on a parallel
// write open, the one rank 0 broadcast). A zero descriptor reproduces the
// historical POSIX defaults exactly. A backend with a write fanout gets
// NFiles min(ntasks, WriteFanout), since such backends parallelize across
// objects, not within one; one with a part-size floor reports its part
// size as the FS block size, so BufferAuto's buffer is part-aligned.
func (o *Options) withDefaults(ntasks int, caps fsio.Capabilities) (Options, error) {
	var out Options
	if o != nil {
		out = *o
	}
	var bufErr error
	out.BufferSize, bufErr = bufferOption(out.BufferSize, caps)
	if err := errors.Join(checkOption("NFiles", int64(out.NFiles), 0),
		checkOption("FSBlockSize", out.FSBlockSize, 0),
		checkOption("CollectorGroup", int64(out.CollectorGroup), CollectorAuto), bufErr); err != nil {
		return out, fmt.Errorf("sion: %w", err)
	}
	if out.NFiles == 0 {
		out.NFiles = max(1, int(caps.WriteFanout))
	}
	out.NFiles = min(out.NFiles, ntasks)
	if out.Mapping == nil {
		out.Mapping = ContiguousMap
	}
	if out.collective() && out.ChunkHeaders {
		return out, fmt.Errorf("sion: CollectorGroup and ChunkHeaders are mutually exclusive (collectors cannot attribute chunk headers)")
	}
	if out.AsyncCollective && !out.collective() {
		return out, fmt.Errorf("sion: AsyncCollective requires CollectorGroup (set it > 1 or CollectorAuto)")
	}
	return out, nil
}

// fsBlockSize is Options.FSBlockSize, or when that is 0 the file system's
// block size (on a parallel write open, rank 0's).
func (o *Options) fsBlockSize(fsys fsio.FileSystem, name string) int64 {
	if o != nil && o.FSBlockSize > 0 {
		return o.FSBlockSize
	}
	return fsys.BlockSize(name)
}

func (o *Options) flags() uint64 {
	var f uint64
	if o.ChunkHeaders {
		f |= flagChunkHeaders
	}
	if o.Watermarks {
		f |= flagWatermarks
	}
	return f
}
