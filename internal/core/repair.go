package sion

import (
	"fmt"
	"io"

	"repro/internal/fsio"
)

// Repair reconstructs metablock 2 of every physical file of a multifile
// and rewrites the trailer. It implements the paper's §6 robustness plan:
// "failures, such as premature application termination or file quota
// violation, may cause the second metadata block to be lost. [...] we plan
// to add small pieces of metadata to each chunk so that the full metadata
// can be restored if needed."
//
// Two sources of truth are supported, alone or combined:
//
//   - Per-chunk headers (Options.ChunkHeaders): chunks whose header still
//     carries the "open" marker (the writer crashed inside the block) are
//     recovered with the bytes that physically exist in the file, bounded
//     by the chunk capacity.
//   - Chunk-commit watermarks (Options.Watermarks): the per-segment
//     sidecar records the durable byte count of every block. Open chunks
//     recover to the committed watermark instead of the physical clamp,
//     and a multifile written without chunk headers (e.g. collectively) is
//     repairable from the watermarks alone. The sidecar codec tolerates a
//     torn final commit record by design — each cell is double-buffered,
//     so a crash mid-commit loses at most that one cell and the rank
//     recovers to its last durable watermark rather than failing.
//
// Repair returns the number of chunks recovered across all segments.
func Repair(fsys fsio.FileSystem, name string) (int, error) {
	// The first segment's header is enough to find the others.
	fh0, err := fsys.OpenRW(fileName(name, 0))
	if err != nil {
		return 0, fmt.Errorf("sion: Repair %s: %w", name, err)
	}
	h0, err := parseHeader(fh0)
	if err != nil {
		fh0.Close()
		return 0, fmt.Errorf("sion: Repair %s: %w", name, err)
	}
	hasCH := h0.Flags&flagChunkHeaders != 0
	hasWM := h0.Flags&flagWatermarks != 0
	if !hasCH && !hasWM {
		fh0.Close()
		return 0, fmt.Errorf("sion: Repair %s: multifile was written without chunk headers or watermarks", name)
	}
	total := 0
	for k := 0; k < int(h0.NFiles); k++ {
		var fh fsio.File
		var h *header
		if k == 0 {
			fh, h = fh0, h0
		} else {
			if fh, err = fsys.OpenRW(fileName(name, k)); err != nil {
				return total, fmt.Errorf("sion: Repair %s: segment %d: %w", name, k, err)
			}
			if h, err = parseHeader(fh); err != nil {
				fh.Close()
				return total, fmt.Errorf("sion: Repair %s: segment %d: %w", name, k, err)
			}
		}
		var wm [][]TailCommit
		if hasWM {
			wm, err = loadWMStates(fsys, name, k, int(h.NTasksLocal))
			if err != nil && !hasCH {
				// Watermarks are the only recovery source: a missing or
				// structurally corrupt sidecar is fatal. With chunk headers
				// present it is merely a lost refinement.
				fh.Close()
				return total, fmt.Errorf("sion: Repair %s: segment %d: %w", name, k, err)
			}
		}
		n, err := repairSegment(fh, h, wm)
		fh.Close()
		fh0 = nil
		if err != nil {
			return total, fmt.Errorf("sion: Repair %s: segment %d: %w", name, k, err)
		}
		total += n
	}
	return total, nil
}

// loadWMStates reads and validates segment k's watermark sidecar,
// cross-checking it against the segment header.
func loadWMStates(fsys fsio.FileSystem, name string, k, nlocal int) ([][]TailCommit, error) {
	wfh, err := fsys.Open(wmName(name, k))
	if err != nil {
		return nil, fmt.Errorf("watermark sidecar: %w", err)
	}
	defer wfh.Close()
	nl, fn, states, err := readWatermarkFile(wfh)
	if err != nil {
		return nil, err
	}
	if nl != nlocal || fn != k {
		return nil, fmt.Errorf("%w: watermark sidecar describes %d tasks of file %d, segment has %d tasks as file %d",
			ErrCorrupt, nl, fn, nlocal, k)
	}
	return states, nil
}

// repairSegment rebuilds one physical file's metablock 2 and trailer from
// its chunk headers, its watermark state (wm, may be nil), or both.
func repairSegment(fh fsio.File, h *header, wm [][]TailCommit) (int, error) {
	g := newGeometry(h)
	size, err := fh.Size()
	if err != nil {
		return 0, err
	}
	nlocal := int(h.NTasksLocal)
	m2 := &meta2{BlockBytes: make([][]int64, nlocal)}
	recovered := 0
	maxBlocks := 0
	hdr := make([]byte, chunkHeaderSize)
	for li := 0; li < nlocal; li++ {
		var bb []int64
		if h.Flags&flagChunkHeaders != 0 {
			for b := 0; ; b++ {
				off := g.chunkOff(li, b)
				if off+chunkHeaderSize > size {
					break
				}
				if _, err := fh.ReadAt(hdr, off); err != nil && err != io.EOF {
					return recovered, err
				}
				ch, ok := parseChunkHeader(hdr)
				if !ok || ch.GlobalRank != h.GlobalRanks[li] || ch.Block != int64(b) {
					// No valid header: this task never entered block b.
					break
				}
				bytes := ch.Bytes
				if bytes < 0 {
					// The writer crashed inside this block. With a durable
					// watermark for the block, recover exactly the committed
					// bytes (anything past them may be torn); otherwise
					// recover what physically fits in the file, bounded by
					// the chunk capacity. Seal the header with the recovered
					// count so the repaired multifile is fully
					// self-consistent (Verify cross-checks headers against
					// the rebuilt metablock 2).
					if wm != nil && b < len(wm[li]) {
						bytes = wm[li][b].Bytes
					} else {
						// The header fits in the file, so this is not negative.
						bytes = size - g.dataOff(li, b)
					}
					if c := g.capacity(li); bytes > c {
						bytes = c
					}
					seal := chunkHeader{GlobalRank: h.GlobalRanks[li], Block: int64(b), Bytes: bytes}
					if _, err := fh.WriteAt(seal.encode(), off); err != nil {
						return recovered, err
					}
				}
				bb = append(bb, bytes)
				recovered++
			}
		} else {
			// Watermark-only recovery: the committed per-block counts are
			// the durable truth (collective multifiles have no chunk
			// headers at all).
			for _, c := range wm[li] {
				bytes := c.Bytes
				if cp := g.capacity(li); bytes > cp {
					bytes = cp
				}
				bb = append(bb, bytes)
				recovered++
			}
		}
		if len(bb) == 0 {
			bb = []int64{0}
		}
		maxBlocks = max(maxBlocks, len(bb)) // at least 1: every task has a block
		m2.BlockBytes[li] = bb
	}
	at := g.start + g.stride*int64(maxBlocks)
	if _, err := writeTail(fh, m2, at); err != nil {
		return recovered, err
	}
	return recovered, fh.Sync()
}
