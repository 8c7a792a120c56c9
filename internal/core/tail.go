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
// A live multifile is a Layout that grows. A TailLayout holds the open
// segments and their sidecars; each Refresh re-reads the sidecars and
// returns the next immutable, non-final Layout snapshot, whose extents are
// the committed bytes. Once every segment has a valid trailer the writer
// has closed: Refresh then returns the final snapshot, built from the
// metablock-2 byte counts as LoadLayout's is, and keeps returning it.

// tailSeg is one physical file of a live multifile plus its watermark
// sidecar.
type tailSeg struct {
	fh  fsio.File
	wfh fsio.File
	h   *header
	geo geometry
}

// TailLayout follows a multifile that may still be written. Its snapshots
// are safe for concurrent use; Refresh is not — callers serialize it.
type TailLayout struct {
	name    string
	mapping []FileLoc
	segs    []*tailSeg
	last    *Layout
}

// LoadTailLayout opens a multifile for tailing. The multifile must have
// been created with Options.Watermarks; a complete (closed) multifile is
// also accepted and loads directly in the final state. While the writer is
// still creating segments the open can fail with a not-exist error —
// callers poll until it succeeds.
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
	t := &TailLayout{name: name, mapping: h0.Mapping}
	for k := 0; k < int(h0.NFiles); k++ {
		fh, h := fh0, h0
		if k > 0 {
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
		t.segs = append(t.segs, &tailSeg{fh: fh, wfh: wfh, h: h, geo: newGeometry(h)})
	}
	if _, err := t.Refresh(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Refresh re-reads every segment's watermark sidecar and returns the next
// snapshot, which is also what Layout returns from then on. When all
// segments carry a valid trailer the multifile is complete: the snapshot is
// final, built from the authoritative metablock-2 byte counts, and later
// Refresh calls return it unchanged.
func (t *TailLayout) Refresh() (*Layout, error) {
	if t.last != nil && t.last.final {
		return t.last, nil
	}
	segs := make([]segState, len(t.segs))
	for k, s := range t.segs {
		nl, fn, states, err := readWatermarkFile(s.wfh)
		if err != nil {
			return nil, fmt.Errorf("sion: tail %s: segment %d watermark sidecar: %w", t.name, k, err)
		}
		if nl != int(s.h.NTasksLocal) || fn != k {
			return nil, fmt.Errorf("%w: tail %s: watermark sidecar describes %d tasks of file %d, segment %d has %d tasks",
				ErrCorrupt, t.name, nl, fn, k, s.h.NTasksLocal)
		}
		segs[k] = segState{s.h, s.geo, states}
	}
	// Finalization probe: the trailer (with its magic) is only written by
	// Close, after the final sealed commits. A mid-write file ends in data
	// bytes that fail the trailer parse, so a successful parse of every
	// segment means the writer is done.
	metas := make([]*meta2, len(t.segs))
	for k, s := range t.segs {
		m2, err := readTail(s.fh, int(s.h.NTasksLocal))
		if err != nil { // not finalized yet
			t.last = newLayout(t.name, t.mapping, segs, false)
			return t.last, nil
		}
		metas[k] = m2
	}
	for k, m2 := range metas {
		segs[k].state = sealedStates(m2)
	}
	t.last = newLayout(t.name, t.mapping, segs, true)
	return t.last, nil
}

// Layout returns the snapshot of the last Refresh.
func (t *TailLayout) Layout() *Layout { return t.last }

// Close releases the layout's file handles.
func (t *TailLayout) Close() error {
	var firstErr error
	for _, s := range t.segs {
		for _, fh := range []fsio.File{s.fh, s.wfh} {
			if err := fh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	t.segs = nil
	return firstErr
}

// TailReader reads one rank's logical stream from a live multifile, never
// past the committed watermark. At the frontier, Read returns ErrAgain
// while the writer is live and io.EOF once the multifile is final and
// drained. Poll observes new commits.
type TailReader struct {
	t    *TailLayout
	snap *Layout
	rank int
	pos  int64
}

// Follow opens a multifile for tailing and returns a reader over one
// rank's logical stream; Close releases it.
func Follow(fsys fsio.FileSystem, name string, rank int) (*TailReader, error) {
	t, err := LoadTailLayout(fsys, name)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= len(t.mapping) {
		t.Close()
		return nil, fmt.Errorf("sion: tail %s: rank %d outside 0..%d", name, rank, len(t.mapping)-1)
	}
	return &TailReader{t: t, snap: t.last, rank: rank}, nil
}

// Read copies committed bytes into p. A short read (n < len(p), err ==
// nil) means the reader caught up with the committed watermark mid-buffer;
// a (0, ErrAgain) means it is exactly at the watermark with the writer
// still live; (0, io.EOF) means the multifile is final and fully drained.
func (r *TailReader) Read(p []byte) (int, error) {
	n, err := r.snap.ReadRankAt(r.rank, p, r.pos, func(file int, p []byte, off int64) error {
		return readAtZeroFill(r.t.segs[file].fh, p, off)
	})
	r.pos += int64(n)
	if n > 0 && (err == io.EOF || err == ErrAgain) {
		err = nil
	}
	return n, err
}

// Poll refreshes the layout and reports whether this rank's committed
// frontier advanced (or the multifile became final).
func (r *TailReader) Poll() (bool, error) {
	prev := r.snap
	next, err := r.t.Refresh()
	if err != nil {
		return false, err
	}
	r.snap = next
	return next.RankSize(r.rank) > prev.RankSize(r.rank) || next.final != prev.final, nil
}

// Committed returns the rank's committed logical size as of the last
// Poll.
func (r *TailReader) Committed() int64 { return r.snap.RankSize(r.rank) }

// Finalized reports whether the multifile is complete.
func (r *TailReader) Finalized() bool { return r.snap.final }

// Close releases the underlying layout.
func (r *TailReader) Close() error { return r.t.Close() }
