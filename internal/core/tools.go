package sion

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/fsio"
)

// Dump prints the multifile metadata in human-readable form (the paper's
// §3.3 "dump" utility): global layout, per-physical-file geometry, and the
// per-task chunk table.
func Dump(fsys fsio.FileSystem, name string, w io.Writer) error {
	sf, err := Open(fsys, name)
	if err != nil {
		return err
	}
	defer sf.Close()
	loc := sf.Locations()
	fmt.Fprintf(w, "multifile:     %s\n", name)
	fmt.Fprintf(w, "tasks:         %d\n", loc.NTasks)
	fmt.Fprintf(w, "physical files:%d\n", loc.NFiles)
	fmt.Fprintf(w, "fs block size: %d\n", loc.FSBlockSize)
	fmt.Fprintf(w, "chunk headers: %v\n", sf.flags&flagChunkHeaders != 0)
	for k, pf := range sf.segs {
		fmt.Fprintf(w, "segment %d: %s  local tasks %d  block stride %d  data start %d\n",
			k, fileName(name, k), pf.h.NTasksLocal, pf.geo.stride, pf.geo.start)
	}
	fmt.Fprintf(w, "%6s %6s %6s %12s %8s %14s\n", "task", "file", "lrank", "chunksize", "blocks", "bytes")
	for r := 0; r < loc.NTasks; r++ {
		var total int64
		for _, b := range loc.BlockBytes[r] {
			total += b
		}
		fmt.Fprintf(w, "%6d %6d %6d %12d %8d %14d\n",
			r, loc.Placement[r].File, loc.Placement[r].LocalRank,
			loc.ChunkSizes[r], len(loc.BlockBytes[r]), total)
	}
	return nil
}

// DumpMapping prints a multifile's global rank→(physical file, local
// rank) mapping table (sion dump -mapping). It reads only file 0's header
// — the mapping bytes pass through the same hardened decodeMapping codec
// (format.go) the mapped open paths trust — so it works on multifiles
// whose other segments are missing or damaged.
func DumpMapping(fsys fsio.FileSystem, name string, w io.Writer) error {
	fh, err := fsys.Open(fileName(name, 0))
	if err != nil {
		return fmt.Errorf("sion: DumpMapping %s: %w", name, err)
	}
	h, err := parseHeader(fh)
	fh.Close()
	if err != nil {
		return fmt.Errorf("sion: DumpMapping %s: %w", name, err)
	}
	fmt.Fprintf(w, "multifile:     %s\n", name)
	fmt.Fprintf(w, "tasks:         %d\n", h.NTasksGlobal)
	fmt.Fprintf(w, "physical files:%d\n", h.NFiles)
	perFile := make([]int, h.NFiles)
	fmt.Fprintf(w, "%6s %6s %6s  %s\n", "task", "file", "lrank", "segment")
	for r, loc := range h.Mapping {
		perFile[loc.File]++
		fmt.Fprintf(w, "%6d %6d %6d  %s\n", r, loc.File, loc.LocalRank, fileName(name, int(loc.File)))
	}
	for k, n := range perFile {
		fmt.Fprintf(w, "segment %d: %d tasks\n", k, n)
	}
	return nil
}

// Split extracts the logical task-local files from a multifile and
// recreates them as physical files (the paper's §3.3 "split" utility).
// pattern must contain one verb receiving the task rank, such as "%d" or
// "%05d", and no other ("%%" is fine); out may be the same or a
// different file system. ranks selects a subset (nil = all).
func Split(fsys fsio.FileSystem, name string, out fsio.FileSystem, pattern string, ranks []int) error {
	if strings.Contains(fmt.Sprintf(pattern, 0), "%!") {
		return fmt.Errorf("sion: Split: pattern %q needs one %%d and no other verb", pattern)
	}
	sf, err := Open(fsys, name)
	if err != nil {
		return err
	}
	defer sf.Close()
	if ranks == nil {
		ranks = make([]int, sf.ntasks)
		for i := range ranks {
			ranks[i] = i
		}
	}
	buf := make([]byte, 1<<20)
	for _, r := range ranks {
		if r < 0 || r >= sf.ntasks {
			return fmt.Errorf("sion: Split: rank %d outside 0..%d", r, sf.ntasks-1)
		}
		_ = sf.Seek(r, 0, 0) // cannot fail: r is in range and (0, 0) starts every stream
		dst, err := out.Create(fmt.Sprintf(pattern, r))
		if err != nil {
			return fmt.Errorf("sion: Split rank %d: %w", r, err)
		}
		// Neither side has WriteTo or ReadFrom, so the copy runs through buf.
		_, err = io.CopyBuffer(io.NewOffsetWriter(dst, 0), sf, buf)
		if err = closeKeep(dst, err); err != nil {
			return fmt.Errorf("sion: Split rank %d: %w", r, err)
		}
	}
	return nil
}

// Defrag rewrites a multifile so that each task's data occupies exactly one
// chunk in a single block, eliminating the logical gaps left by partially
// filled blocks (the paper's §3.3 "defragment" utility). The destination
// keeps the physical-file count and task placement of the source. It
// refuses to write over its own source, which Create would truncate while
// it is still being read.
func Defrag(fsys fsio.FileSystem, name string, out fsio.FileSystem, dstName string) error {
	if out == fsys && dstName == name {
		return fmt.Errorf("sion: Defrag %s: destination is the source", name)
	}
	sf, err := Open(fsys, name)
	if err != nil {
		return err
	}
	defer sf.Close()

	chunkSizes := make([]int64, sf.ntasks)
	for r := range chunkSizes {
		if chunkSizes[r] = sf.RankBytes(r); chunkSizes[r] == 0 {
			chunkSizes[r] = 1 // a chunk must have positive capacity
		}
	}
	mapping := sf.mapping
	opts := &Options{
		FSBlockSize:  sf.fsblk,
		NFiles:       sf.nfiles,
		ChunkHeaders: sf.flags&flagChunkHeaders != 0,
		Mapping: func(rank, ntasks, nfiles int) int {
			return int(mapping[rank].File)
		},
	}
	dst, err := Create(out, dstName, chunkSizes, opts)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	for r := 0; r < sf.ntasks; r++ {
		err := sf.Seek(r, 0, 0)
		if err == nil {
			err = dst.Seek(r, 0, 0)
		}
		if err == nil {
			_, err = io.CopyBuffer(dst, sf, buf)
		}
		if err != nil {
			dst.closeAll()
			return err
		}
	}
	return dst.Close()
}

// Verify checks the structural integrity of a multifile: parsable
// metablocks, consistent mapping, and per-block byte counts within chunk
// capacity. It returns the first problem found (nil = intact).
func Verify(fsys fsio.FileSystem, name string) error {
	sf, err := Open(fsys, name)
	if err != nil {
		return err
	}
	defer sf.Close()
	seen := make(map[[2]int32]bool)
	for r, loc := range sf.mapping {
		key := [2]int32{loc.File, loc.LocalRank}
		if seen[key] {
			return fmt.Errorf("%w: tasks share placement file=%d lrank=%d", ErrCorrupt, loc.File, loc.LocalRank)
		}
		seen[key] = true
		// Open checked li against the segment's task count.
		pf := sf.segs[loc.File]
		li := int(loc.LocalRank)
		if pf.h.GlobalRanks[li] != int64(r) {
			return fmt.Errorf("%w: segment %d lrank %d says global rank %d, mapping says %d",
				ErrCorrupt, loc.File, li, pf.h.GlobalRanks[li], r)
		}
		cap := pf.geo.capacity(li)
		for b, bytes := range pf.m2.BlockBytes[li] {
			if bytes < 0 || bytes > cap {
				return fmt.Errorf("%w: task %d block %d holds %d bytes, capacity %d", ErrCorrupt, r, b, bytes, cap)
			}
		}
	}
	// With watermarks enabled, cross-check the commit sidecars against
	// metablock 2: a watermark records bytes that were durable before the
	// commit, so metablock 2 claiming fewer bytes means metadata was lost.
	// A missing sidecar is fine (it may have been cleaned up after close);
	// a present-but-unparsable one is corruption.
	if sf.flags&flagWatermarks != 0 {
		for k, pf := range sf.segs {
			states, err := loadWMStates(sf.fsys, name, k, int(pf.h.NTasksLocal))
			if errors.Is(err, fsio.ErrNotExist) {
				continue // sidecar absent
			}
			if err != nil {
				return fmt.Errorf("sion: Verify %s: segment %d: %w", name, k, err)
			}
			for li, blocks := range states {
				bb := pf.m2.BlockBytes[li]
				for b, c := range blocks {
					got := int64(-1) // a block metablock 2 does not record
					if b < len(bb) {
						got = bb[b]
					}
					if c.Bytes > got {
						return fmt.Errorf("%w: segment %d task %d block %d: watermark committed %d bytes, metablock 2 records %d",
							ErrCorrupt, k, pf.h.GlobalRanks[li], b, c.Bytes, got)
					}
				}
			}
		}
	}
	// With chunk headers enabled, cross-check them against metablock 2.
	if sf.flags&flagChunkHeaders != 0 {
		for k, pf := range sf.segs {
			hdr := make([]byte, chunkHeaderSize)
			for li := 0; li < int(pf.h.NTasksLocal); li++ {
				for b, bytes := range pf.m2.BlockBytes[li] {
					if err := readMeta(pf.fh, hdr, pf.geo.chunkOff(li, b), "chunk header"); err != nil {
						return fmt.Errorf("sion: Verify %s: segment %d: %w", name, k, err)
					}
					ch, ok := parseChunkHeader(hdr)
					if !ok {
						return fmt.Errorf("%w: segment %d task %d block %d: bad chunk header", ErrCorrupt, k, pf.h.GlobalRanks[li], b)
					}
					if ch.GlobalRank != pf.h.GlobalRanks[li] || ch.Block != int64(b) || ch.Bytes != bytes {
						return fmt.Errorf("%w: segment %d: chunk header %+v disagrees with metablock 2 (%d bytes)",
							ErrCorrupt, k, *ch, bytes)
					}
				}
			}
		}
	}
	return nil
}
