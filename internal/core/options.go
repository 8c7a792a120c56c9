package sion

import (
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

// Options configures ParOpen (write mode) and the serial Create.
type Options struct {
	// ChunkSize is the maximum number of bytes this task writes in one
	// piece (paper §3.1). It may differ between tasks. Required in write
	// mode; SIONlib rounds the allocation up to a multiple of the FS
	// block size.
	ChunkSize int64

	// FSBlockSize overrides the auto-detected file-system block size
	// (0 = detect via the file system, like SIONlib's fstat call).
	// The alignment experiments (Table 1) set this explicitly.
	FSBlockSize int64

	// NFiles is the number of underlying physical files. 0 picks the
	// backend default: min(ntasks, WriteFanout) when the backend's
	// capability descriptor declares a write fanout, else 1 (see
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
	// Values: 0 or 1 disable (direct I/O); > 1 is a fixed group size;
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
	// and Close (all group members). Requires CollectorGroup != 0; ignored
	// in read mode (collective reads always complete at open).
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
	// behavior on POSIX-ish backends, upgraded to BufferAuto on backends
	// with a multipart part-size floor (see withDefaults; sub-part writes
	// pay staged copies there, so staging defaults on); a positive value
	// is the exact buffer size in bytes; BufferAuto (-1) derives the size
	// from the chunk geometry — one chunk capacity rounded up to a
	// multiple of the FS block size, capped at bufferAutoCap — so a
	// small-record checkpoint issues roughly one write request per chunk
	// instead of one per record; BufferOff (-2) disables staging
	// unconditionally on every backend.
	//
	// Collective handles ignore BufferSize: members route data through
	// frames that already coalesce at the collector, and collective reads
	// prefetch whole streams at open. Handles opened without options
	// (OpenRank) can enable staging afterwards with SetBufferSize. A
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

// maxAutoGroup bounds the auto-tuned group size: a collector holds up to
// group × chunk bytes in flight, so unbounded groups would trade request
// count for memory without further bandwidth benefit.
const maxAutoGroup = 64

// autoCollectorGroup derives the collector group size from the average
// aligned chunk size of a physical file: enough members that one
// collector region spans autoCollectTargetBlocks FS blocks.
func autoCollectorGroup(ntasksLocal int, avgAligned, fsblk int64) int {
	if avgAligned <= 0 {
		return 1
	}
	target := autoCollectTargetBlocks * fsblk
	g := int((target + avgAligned - 1) / avgAligned)
	if g < 1 {
		g = 1
	}
	if g > maxAutoGroup {
		g = maxAutoGroup
	}
	if g > ntasksLocal {
		g = ntasksLocal
	}
	return g
}

// withDefaults resolves the zero-value options against the task count
// and the backend's capability descriptor (on a parallel write open, the
// one rank 0 broadcast). A zero descriptor reproduces the historical
// POSIX defaults exactly; a backend that declares multipart write
// semantics (PartSizeFloor > 0) or a write fanout gets its geometry
// auto-tuned:
//
//   - NFiles defaults to min(ntasks, WriteFanout) instead of 1, because
//     such backends parallelize across objects, not within one.
//   - BufferSize 0 upgrades to BufferAuto — sub-part writes pay staged
//     copies there, so write-behind staging defaults ON, and because
//     such a backend reports its part size as the FS block size, the
//     auto-sized buffer is part-aligned. BufferOff is the explicit
//     opt-out that keeps staging disabled on any backend.
func (o *Options) withDefaults(ntasks int, caps fsio.Capabilities) (Options, error) {
	var out Options
	if o != nil {
		out = *o
	}
	if out.NFiles <= 0 {
		out.NFiles = 1
		if caps.WriteFanout > 1 {
			out.NFiles = int(caps.WriteFanout)
		}
	}
	if out.NFiles > ntasks {
		out.NFiles = ntasks
	}
	if out.Mapping == nil {
		out.Mapping = ContiguousMap
	}
	if out.CollectorGroup < CollectorAuto {
		return out, fmt.Errorf("sion: CollectorGroup %d (use 0/1 to disable, >1 fixed, CollectorAuto)", out.CollectorGroup)
	}
	if out.CollectorGroup != 0 && out.CollectorGroup != 1 && out.ChunkHeaders {
		return out, fmt.Errorf("sion: CollectorGroup and ChunkHeaders are mutually exclusive (collectors cannot attribute chunk headers)")
	}
	if out.AsyncCollective && (out.CollectorGroup == 0 || out.CollectorGroup == 1) {
		return out, fmt.Errorf("sion: AsyncCollective requires CollectorGroup (set it > 1 or CollectorAuto)")
	}
	if out.BufferSize < BufferOff {
		return out, fmt.Errorf("sion: BufferSize %d (use 0 for the backend default, BufferOff to disable, a positive size, or BufferAuto)", out.BufferSize)
	}
	if caps.PartSizeFloor > 0 && out.BufferSize == 0 {
		out.BufferSize = BufferAuto
	}
	if out.BufferSize == BufferOff {
		out.BufferSize = 0
	}
	return out, nil
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
