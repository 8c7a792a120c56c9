package sion

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/fsio"
)

// Layout is an immutable, handle-free snapshot of where every committed
// logical byte of a multifile lives: per global rank, the physical file and
// absolute offset of each of its block extents. A closed multifile has one
// snapshot, final (LoadLayout); a live one grows a new, non-final snapshot
// with every TailLayout.Refresh until the writer's Close makes it final. It
// exists for layers that do their own physical I/O over a multifile instead
// of going through File handles — internal/serve builds its block cache on
// it — and for inspection tools. A Layout holds no open files; it is safe
// for concurrent use by any number of goroutines.
type Layout struct {
	name    string
	ntasks  int
	nfiles  int
	fsblk   int64
	mapping []FileLoc
	chunks  []int64    // requested chunk size per global rank
	blocks  [][]extent // per global rank, per block: the committed bytes
	open    [][]int64  // per physical file, ascending: where an unsealed last extent ends
	final   bool
}

// extent is a BlockExtent and the logical offset just past it.
type extent struct {
	BlockExtent
	end int64
}

// BlockExtent locates the used bytes of one block of one rank's logical
// file: Bytes bytes starting at absolute offset Off of physical file File.
type BlockExtent struct {
	File  int
	Off   int64
	Bytes int64
}

// LoadLayout parses a multifile's metadata (every segment's metablocks)
// and returns its final layout. The multifile must be complete — written
// and closed; an in-progress multifile has no metablock 2 and fails with
// ErrCorrupt (LoadTailLayout follows one).
func LoadLayout(fsys fsio.FileSystem, name string) (*Layout, error) {
	ml, err := openMappedLocal(fsys, name, nil)
	if err != nil {
		return nil, fmt.Errorf("sion: LoadLayout %s: %w", name, err)
	}
	defer ml.closeAll()
	segs := make([]segState, ml.nfiles)
	for k := range segs {
		pf := ml.segs[k]
		segs[k] = segState{pf.h, pf.geo, sealedStates(pf.m2)}
	}
	return newLayout(name, ml.mapping, segs, true), nil
}

// segState is what a snapshot is built from for one physical file: its
// header and geometry, and per local rank the commit state of each block.
type segState struct {
	h     *header
	geo   geometry
	state [][]TailCommit
}

// sealedStates restates metablock 2's block byte counts as sealed commits.
func sealedStates(m2 *meta2) [][]TailCommit {
	st := make([][]TailCommit, len(m2.BlockBytes))
	for li, bb := range m2.BlockBytes {
		st[li] = make([]TailCommit, len(bb))
		for b, n := range bb {
			st[li][b] = TailCommit{Bytes: n, Sealed: true}
		}
	}
	return st
}

// newLayout assembles the snapshot of multifile name: global rank g is
// local rank mapping[g].LocalRank of segment mapping[g].File. Block byte
// counts are clamped to the chunk capacity (a sidecar never legitimately
// exceeds it). On a live snapshot a rank's unsealed last extent is open:
// the writer may still append to it.
func newLayout(name string, mapping []FileLoc, segs []segState, final bool) *Layout {
	n := len(mapping)
	l := &Layout{
		name:    name,
		ntasks:  n,
		nfiles:  len(segs),
		fsblk:   segs[0].h.FSBlockSize,
		mapping: slices.Clone(mapping),
		chunks:  make([]int64, n),
		blocks:  make([][]extent, n),
		final:   final,
	}
	if !final {
		l.open = make([][]int64, len(segs))
	}
	for g, loc := range mapping {
		s, li := &segs[loc.File], int(loc.LocalRank)
		l.chunks[g] = s.h.ChunkSizes[li]
		st := s.state[li]
		exts := make([]extent, len(st))
		var size int64
		for b, c := range st {
			e := BlockExtent{File: int(loc.File), Off: s.geo.dataOff(li, b), Bytes: min(c.Bytes, s.geo.capacity(li))}
			size += e.Bytes
			exts[b] = extent{e, size}
		}
		l.blocks[g] = exts
		if last := len(st) - 1; !final && last >= 0 && !st[last].Sealed {
			l.open[loc.File] = append(l.open[loc.File], exts[last].Off+exts[last].Bytes)
		}
	}
	for _, o := range l.open {
		slices.Sort(o)
	}
	return l
}

// Name returns the logical multifile name the layout was loaded from.
func (l *Layout) Name() string { return l.name }

// NTasks returns the number of logical task-local files.
func (l *Layout) NTasks() int { return l.ntasks }

// NumFiles returns the number of physical files.
func (l *Layout) NumFiles() int { return l.nfiles }

// FSBlockSize returns the block size chunks are aligned to.
func (l *Layout) FSBlockSize() int64 { return l.fsblk }

// PhysicalName returns the on-disk name of physical file k.
func (l *Layout) PhysicalName(k int) string { return fileName(l.name, k) }

// Mapping returns a copy of the global rank→(file, local rank) table.
func (l *Layout) Mapping() []FileLoc { return append([]FileLoc(nil), l.mapping...) }

// Final reports whether the snapshot is of a closed multifile: its sizes
// are final and reads past them end in io.EOF, not ErrAgain.
func (l *Layout) Final() bool { return l.final }

// ChunkSize returns the requested chunk size of rank g (0 if out of range).
func (l *Layout) ChunkSize(g int) int64 {
	if g < 0 || g >= l.ntasks {
		return 0
	}
	return l.chunks[g]
}

// RankSize returns the committed logical bytes of rank g (0 if out of
// range).
func (l *Layout) RankSize(g int) int64 {
	if g < 0 || g >= l.ntasks || len(l.blocks[g]) == 0 {
		return 0
	}
	return l.blocks[g][len(l.blocks[g])-1].end
}

// RankBlocks returns a copy of rank g's committed block extents in logical
// order: concatenating them yields the rank's logical stream.
func (l *Layout) RankBlocks(g int) []BlockExtent {
	if g < 0 || g >= l.ntasks {
		return nil
	}
	out := make([]BlockExtent, len(l.blocks[g]))
	for i, e := range l.blocks[g] {
		out[i] = e.BlockExtent
	}
	return out
}

// ReadRankAt fills p with rank g's committed logical bytes from offset off,
// handing each physical piece to read: its physical file, its share of p
// and its absolute offset. It finds the first extent by binary search and
// allocates nothing. A window past the committed end reads short, with
// io.EOF on a final snapshot and ErrAgain on a live one.
func (l *Layout) ReadRankAt(g int, p []byte, off int64, read func(file int, p []byte, off int64) error) (int, error) {
	if g < 0 || g >= l.ntasks {
		return 0, fmt.Errorf("sion: %s: rank %d outside 0..%d", l.name, g, l.ntasks-1)
	}
	if off < 0 {
		return 0, fmt.Errorf("sion: %s: negative logical offset %d", l.name, off)
	}
	exts := l.blocks[g]
	total := 0
	for i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off }); len(p) > 0 && i < len(exts); i++ {
		e := exts[i]
		rel := off - (e.end - e.Bytes)
		n := min(int64(len(p)), e.Bytes-rel)
		if n <= 0 {
			continue
		}
		if err := read(e.File, p[:n], e.Off+rel); err != nil {
			return total, err
		}
		p, off, total = p[n:], off+n, total+int(n)
	}
	switch {
	case len(p) == 0:
		return total, nil
	case l.final:
		return total, io.EOF
	}
	return total, ErrAgain
}

// StableEnd returns how far the bytes of physical file k from off up to end
// are committed and so never change: end, unless a rank's open extent on a
// live snapshot ends inside (off, end). Chunks are FS-block aligned, so a
// window within one FS block holds at most one rank's frontier.
func (l *Layout) StableEnd(k int, off, end int64) int64 {
	if l.final || k < 0 || k >= len(l.open) {
		return end
	}
	o := l.open[k]
	if i := sort.Search(len(o), func(i int) bool { return o[i] > off }); i < len(o) && o[i] < end {
		return o[i]
	}
	return end
}
