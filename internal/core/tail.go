package sion

import (
	"fmt"
	"io"

	"repro/internal/fsio"
)

// This file implements tailing reads over a live multifile: a reader opens
// a multifile that is still being written (Options.Watermarks) and walks
// each rank's logical stream up to the committed watermark, never past it.
// The commit-ordering contract (data WriteAt → data Sync → watermark cell
// WriteAt → watermark Sync, see watermark.go) guarantees every byte below
// a committed watermark is durable and untorn, so the reader needs no
// locks, leases, or writer cooperation beyond the sidecar.
//
// A TailLayout is the live analogue of Layout: instead of metablock 2
// (which only exists after Close) it carries the per-rank TailCommit state
// re-read from the sidecars by Refresh. Once every segment has a valid
// trailer the writer has closed; Refresh then switches to the final
// metablock-2 byte counts and the layout is Finalized — further Refresh
// calls are no-ops and readers drain to io.EOF.

// tailSeg is one physical file of a live multifile plus its watermark
// sidecar and last-observed commit state.
type tailSeg struct {
	fh    fsio.File
	wfh   fsio.File
	h     *header
	geo   geometry
	state [][]TailCommit // per local rank, per block; refreshed
}

// TailLayout is a read-only view of a multifile that may still be written.
// It is not safe for concurrent use; callers serialize access (serve wraps
// it in a mutex).
type TailLayout struct {
	fsys      fsio.FileSystem
	name      string
	mapping   []FileLoc
	segs      []*tailSeg
	finalized bool
}

// LoadTailLayout opens a multifile for tailing. The multifile must have
// been created with Options.Watermarks; a complete (closed) multifile is
// also accepted and loads directly in the finalized state. While the
// writer is still creating segments the open can fail with a not-exist
// error — callers poll until it succeeds.
func LoadTailLayout(fsys fsio.FileSystem, name string) (*TailLayout, error) {
	fh0, err := fsys.Open(fileName(name, 0))
	if err != nil {
		return nil, fmt.Errorf("sion: LoadTailLayout %s: %w", name, err)
	}
	h0, err := parseHeader(fh0)
	if err != nil {
		fh0.Close()
		return nil, fmt.Errorf("sion: LoadTailLayout %s: %w", name, err)
	}
	if h0.Flags&flagWatermarks == 0 {
		fh0.Close()
		return nil, fmt.Errorf("sion: LoadTailLayout %s: multifile was written without Options.Watermarks (nothing to tail)", name)
	}
	t := &TailLayout{
		fsys:    fsys,
		name:    name,
		mapping: append([]FileLoc(nil), h0.Mapping...),
	}
	for k := 0; k < int(h0.NFiles); k++ {
		var fh fsio.File
		var h *header
		if k == 0 {
			fh, h = fh0, h0
		} else {
			if fh, err = fsys.Open(fileName(name, k)); err != nil {
				t.Close()
				return nil, fmt.Errorf("sion: LoadTailLayout %s: segment %d: %w", name, k, err)
			}
			if h, err = parseHeader(fh); err != nil {
				fh.Close()
				t.Close()
				return nil, fmt.Errorf("sion: LoadTailLayout %s: segment %d: %w", name, k, err)
			}
		}
		wfh, err := fsys.Open(wmName(name, k))
		if err != nil {
			fh.Close()
			t.Close()
			return nil, fmt.Errorf("sion: LoadTailLayout %s: segment %d watermark sidecar: %w", name, k, err)
		}
		t.segs = append(t.segs, &tailSeg{
			fh:    fh,
			wfh:   wfh,
			h:     h,
			geo:   newGeometry(h),
			state: make([][]TailCommit, h.NTasksLocal),
		})
	}
	if err := t.Refresh(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Refresh re-reads every segment's watermark sidecar, advancing the
// visible commit state. When all segments carry a valid trailer the
// multifile is complete: the state switches to the authoritative
// metablock-2 byte counts and the layout becomes Finalized (after which
// Refresh is a no-op).
func (t *TailLayout) Refresh() error {
	if t.finalized {
		return nil
	}
	for k, s := range t.segs {
		nl, fn, states, err := readWatermarkFile(s.wfh)
		if err != nil {
			return fmt.Errorf("sion: tail %s: segment %d watermark sidecar: %w", t.name, k, err)
		}
		if nl != int(s.h.NTasksLocal) || fn != k {
			return fmt.Errorf("%w: tail %s: watermark sidecar describes %d tasks of file %d, segment %d has %d tasks",
				ErrCorrupt, t.name, nl, fn, k, s.h.NTasksLocal)
		}
		s.state = states
	}
	// Finalization probe: the trailer (with its magic) is only written by
	// Close, after the final sealed commits. A mid-write file ends in data
	// bytes that fail the trailer parse, so a successful parse of every
	// segment means the writer is done.
	metas := make([]*meta2, len(t.segs))
	for i, s := range t.segs {
		m2, err := readTail(s.fh, int(s.h.NTasksLocal))
		if err != nil {
			return nil // not finalized yet
		}
		metas[i] = m2
	}
	for i, s := range t.segs {
		st := make([][]TailCommit, s.h.NTasksLocal)
		for li := range st {
			bb := metas[i].BlockBytes[li]
			cs := make([]TailCommit, len(bb))
			for b, bytes := range bb {
				cs[b] = TailCommit{Bytes: bytes, Sealed: true}
			}
			st[li] = cs
		}
		s.state = st
	}
	t.finalized = true
	return nil
}

// Finalized reports whether the writer has closed the multifile (as of the
// last Refresh). Once true, committed sizes are final.
func (t *TailLayout) Finalized() bool { return t.finalized }

// NTasks returns the number of writer tasks.
func (t *TailLayout) NTasks() int { return len(t.mapping) }

// NumFiles returns the number of physical files.
func (t *TailLayout) NumFiles() int { return len(t.segs) }

// FSBlockSize returns the file-system block size recorded in the header.
func (t *TailLayout) FSBlockSize() int64 { return t.segs[0].h.FSBlockSize }

// Name returns the multifile's base name.
func (t *TailLayout) Name() string { return t.name }

// PhysicalName returns the path of physical file k.
func (t *TailLayout) PhysicalName(k int) string { return fileName(t.name, k) }

// RankCommitted returns the committed extents of one rank's logical
// stream, in logical order, and whether the last extent is still open
// (unsealed — the writer may append more bytes to that same block).
func (t *TailLayout) RankCommitted(rank int) ([]BlockExtent, bool) {
	if rank < 0 || rank >= len(t.mapping) {
		return nil, false
	}
	loc := t.mapping[rank]
	s := t.segs[loc.File]
	li := int(loc.LocalRank)
	if li >= len(s.state) {
		return nil, false
	}
	blocks := s.state[li]
	ext := make([]BlockExtent, 0, len(blocks))
	for b, c := range blocks {
		bytes := c.Bytes
		if cp := s.geo.capacity(li); bytes > cp {
			bytes = cp // defensive: a sidecar never legitimately exceeds capacity
		}
		ext = append(ext, BlockExtent{File: int(loc.File), Off: s.geo.dataOff(li, b), Bytes: bytes})
	}
	open := false
	if n := len(blocks); n > 0 && !t.finalized {
		open = !blocks[n-1].Sealed
	}
	return ext, open
}

// CommittedSize returns the number of committed logical bytes of rank (as
// of the last Refresh).
func (t *TailLayout) CommittedSize(rank int) int64 {
	ext, _ := t.RankCommitted(rank)
	var total int64
	for _, e := range ext {
		total += e.Bytes
	}
	return total
}

// Close releases the layout's file handles.
func (t *TailLayout) Close() error {
	var firstErr error
	for _, s := range t.segs {
		if s.fh != nil {
			if err := s.fh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.fh = nil
		}
		if s.wfh != nil {
			if err := s.wfh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.wfh = nil
		}
	}
	return firstErr
}

// readCommittedAt copies committed bytes of rank's logical stream starting
// at logical offset pos into dst, stopping at the committed watermark. It
// returns the number of bytes copied (0 means pos is at the frontier).
func (t *TailLayout) readCommittedAt(rank int, dst []byte, pos int64) (int, error) {
	ext, _ := t.RankCommitted(rank)
	loc := t.mapping[rank]
	s := t.segs[loc.File]
	n := 0
	var logical int64
	for _, e := range ext {
		if n == len(dst) {
			break
		}
		cur := pos + int64(n)
		if cur >= logical && cur < logical+e.Bytes {
			off := cur - logical
			want := e.Bytes - off
			if max := int64(len(dst) - n); want > max {
				want = max
			}
			if err := readAtZeroFill(s.fh, dst[n:n+int(want)], e.Off+off); err != nil {
				return n, err
			}
			n += int(want)
		}
		logical += e.Bytes
	}
	return n, nil
}

// TailReader reads one rank's logical stream from a live multifile, never
// past the committed watermark. At the frontier, Read returns ErrAgain
// while the writer is live and io.EOF once the multifile is finalized and
// drained. Call Poll (or TailLayout.Refresh) to observe new commits.
type TailReader struct {
	t    *TailLayout
	owns bool
	rank int
	pos  int64
}

// Follow opens a multifile for tailing and returns a reader over one
// rank's logical stream. The reader owns the underlying TailLayout; Close
// releases it.
func Follow(fsys fsio.FileSystem, name string, rank int) (*TailReader, error) {
	t, err := LoadTailLayout(fsys, name)
	if err != nil {
		return nil, err
	}
	r, err := t.Rank(rank)
	if err != nil {
		t.Close()
		return nil, err
	}
	r.owns = true
	return r, nil
}

// Rank returns a tail reader over one rank's logical stream, sharing this
// layout (the caller keeps ownership of the layout).
func (t *TailLayout) Rank(rank int) (*TailReader, error) {
	if rank < 0 || rank >= len(t.mapping) {
		return nil, fmt.Errorf("sion: tail %s: rank %d outside 0..%d", t.name, rank, len(t.mapping)-1)
	}
	return &TailReader{t: t, rank: rank}, nil
}

// Read copies committed bytes into p. A short read (n < len(p), err ==
// nil) means the reader caught up with the committed watermark mid-buffer;
// a (0, ErrAgain) means it is exactly at the watermark with the writer
// still live; (0, io.EOF) means the multifile is finalized and fully
// drained.
func (r *TailReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := r.t.readCommittedAt(r.rank, p, r.pos)
	r.pos += int64(n)
	if err != nil {
		return n, err
	}
	if n == 0 {
		if r.t.finalized {
			return 0, io.EOF
		}
		return 0, ErrAgain
	}
	return n, nil
}

// Poll refreshes the underlying layout and reports whether this rank's
// committed frontier advanced (or the multifile finalized).
func (r *TailReader) Poll() (bool, error) {
	before := r.t.CommittedSize(r.rank)
	wasFinal := r.t.finalized
	if err := r.t.Refresh(); err != nil {
		return false, err
	}
	return r.t.CommittedSize(r.rank) > before || r.t.finalized != wasFinal, nil
}

// Committed returns the rank's committed logical size as of the last
// Refresh/Poll.
func (r *TailReader) Committed() int64 { return r.t.CommittedSize(r.rank) }

// Finalized reports whether the multifile is complete.
func (r *TailReader) Finalized() bool { return r.t.finalized }

// Close releases the underlying layout if this reader owns it (it does
// when built with Follow; readers from TailLayout.Rank share the caller's
// layout and their Close is a no-op).
func (r *TailReader) Close() error {
	if r.owns {
		r.owns = false
		return r.t.Close()
	}
	return nil
}
