package sion

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Layout is an immutable, handle-free snapshot of where every committed
// logical byte of a multifile lives: per global rank, the physical file and
// absolute offset of each of its block extents. LoadTailLayout loads it: a
// closed multifile has one snapshot, final; a live one grows a new,
// non-final snapshot with every TailLayout.Refresh until the writer's Close
// makes it final. It exists for layers that do their own physical I/O over
// a multifile instead of going through File handles — internal/serve
// builds its block cache on it — and for inspection tools. A Layout holds
// no open files; it is safe for concurrent use by any number of goroutines.
type Layout struct {
	name    string
	ntasks  int
	nfiles  int
	fsblk   int64
	mapping []FileLoc
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
		blocks:  make([][]extent, n),
		final:   final,
	}
	if !final {
		l.open = make([][]int64, len(segs))
	}
	for g, loc := range mapping {
		s, li := &segs[loc.File], int(loc.LocalRank)
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

// GridShift lays a grid of cell-byte cells on each physical file's chunk
// grid: cell c of file k covers [c·cell − shift[k], (c+1)·cell −
// shift[k]), so a cell boundary falls on the file's first chunk, and on
// every chunk boundary whose chunk sizes are multiples of cell (shift 0
// for a file holding no chunk). Chunks start behind metablock 1, so cut
// from byte 0 every chunk would end one metablock into a cell. Grids of
// cells that divide one another nest: shift mod a smaller cell is that
// cell's shift.
func (l *Layout) GridShift(cell int64) []int64 {
	first := make([]int64, l.nfiles) // the first chunk's offset per file, 0 = none seen
	for _, exts := range l.blocks {
		if len(exts) > 0 && (first[exts[0].File] == 0 || exts[0].Off < first[exts[0].File]) {
			first[exts[0].File] = exts[0].Off
		}
	}
	for k, off := range first {
		first[k] = (cell - off%cell) % cell
	}
	return first
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
