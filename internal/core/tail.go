package sion

import (
	"errors"
	"fmt"

	"repro/internal/fsio"
)

// This file is the one layout loader, for closed and live multifiles. A
// TailLayout holds the open segments and, with Options.Watermarks, their
// sidecars; each Refresh returns the next immutable Layout snapshot. While
// the writer is live the snapshot's extents end at the committed
// watermarks: every byte below one is durable and untorn (watermark.go
// syncs data before its commit record), so readers need no locks, leases,
// or writer cooperation. Once every segment has a valid trailer the writer
// has closed, and Refresh returns the final snapshot, built from the
// metablock-2 byte counts, from then on. A segment without a sidecar must
// have its trailer: a multifile written without watermarks loads final or
// not at all.

// tailSeg is one physical file of a multifile plus its watermark sidecar
// (nil when it has none).
type tailSeg struct {
	fh  fsio.File
	wfh fsio.File
	h   *header
	geo geometry
}

// TailLayout holds a multifile's open segments and its latest snapshot.
// Its snapshots are safe for concurrent use; Refresh, ReadRankAt and Close
// are not — callers serialize them.
type TailLayout struct {
	name        string
	mapping     []FileLoc
	watermarked bool
	segs        []*tailSeg
	last        *Layout
}

// LoadTailLayout opens a multifile by layout: every segment's metablocks,
// and with Options.Watermarks its sidecars. A closed multifile loads final;
// one still being written loads live and grows with Refresh. A multifile
// written without watermarks must be closed (a missing trailer is
// ErrCorrupt). While the writer is still creating segments the open can
// fail with a not-exist error — callers poll until it succeeds.
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
	t := &TailLayout{name: name, mapping: h0.Mapping, watermarked: h0.Flags&flagWatermarks != 0}
	fail := func(err error) (*TailLayout, error) {
		t.Close()
		return nil, fmt.Errorf("sion: LoadTailLayout %s: %w", name, err)
	}
	for k := 0; k < int(h0.NFiles); k++ {
		s := &tailSeg{fh: fh0, h: h0}
		if k > 0 {
			if s.fh, err = fsys.Open(fileName(name, k)); err != nil {
				return fail(fmt.Errorf("segment %d: %w", k, err))
			}
			if s.h, err = parseHeader(s.fh); err != nil {
				s.fh.Close()
				return fail(fmt.Errorf("segment %d: %w", k, err))
			}
		}
		t.segs = append(t.segs, s)
		s.geo = newGeometry(s.h)
		if t.watermarked {
			// A closed multifile's sidecars may have been cleaned up: the
			// segment then loads from its trailer (Refresh).
			wfh, err := fsys.Open(wmName(name, k))
			switch {
			case err == nil:
				s.wfh = wfh
			case !errors.Is(err, fsio.ErrNotExist):
				return fail(fmt.Errorf("segment %d watermark sidecar: %w", k, err))
			}
		}
	}
	for g, loc := range t.mapping {
		if n := t.segs[loc.File].h.NTasksLocal; loc.LocalRank >= n {
			return fail(fmt.Errorf("%w: task %d maps to local rank %d of segment %d (%d tasks)",
				ErrCorrupt, g, loc.LocalRank, loc.File, n))
		}
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
		segs[k] = segState{h: s.h, geo: s.geo}
		if s.wfh == nil {
			continue
		}
		nl, fn, states, err := readWatermarkFile(s.wfh)
		if err != nil {
			return nil, fmt.Errorf("sion: tail %s: segment %d watermark sidecar: %w", t.name, k, err)
		}
		if nl != int(s.h.NTasksLocal) || fn != k {
			return nil, fmt.Errorf("%w: tail %s: watermark sidecar describes %d tasks of file %d, segment %d has %d tasks",
				ErrCorrupt, t.name, nl, fn, k, s.h.NTasksLocal)
		}
		segs[k].state = states
	}
	// Finalization probe: the trailer (with its magic) is only written by
	// Close, after the final sealed commits. A mid-write file ends in data
	// bytes that fail the trailer parse, so a successful parse of every
	// segment means the writer is done. A segment without a sidecar has
	// nothing else to load from.
	sealed := make([][][]TailCommit, len(t.segs))
	final := true
	for k, s := range t.segs {
		m2, err := readTail(s.fh, int(s.h.NTasksLocal))
		switch {
		case err == nil:
			sealed[k] = sealedStates(m2)
		case s.wfh == nil:
			return nil, fmt.Errorf("sion: %s: segment %d: %w", t.name, k, err)
		default: // not finalized yet
			final = false
		}
	}
	for k := range segs {
		if final || t.segs[k].wfh == nil {
			segs[k].state = sealed[k]
		}
	}
	t.last = newLayout(t.name, t.mapping, segs, final)
	return t.last, nil
}

// Layout returns the snapshot of the last Refresh.
func (t *TailLayout) Layout() *Layout { return t.last }

// Watermarked reports whether the multifile was written with
// Options.Watermarks: only such a multifile can be read while it is
// written.
func (t *TailLayout) Watermarked() bool { return t.watermarked }

// File returns the open handle of physical file k, which the layout owns:
// Close closes it.
func (t *TailLayout) File(k int) fsio.File { return t.segs[k].fh }

// ReadRankAt reads rank g's committed logical bytes from offset off as of
// the last Refresh, as Layout.ReadRankAt does: a window past the committed
// end reads short, with io.EOF on a final snapshot and ErrAgain on a live
// one. Bytes the backend does not deliver read as zeros.
func (t *TailLayout) ReadRankAt(g int, p []byte, off int64) (int, error) {
	return t.last.ReadRankAt(g, p, off, func(file int, p []byte, off int64) error {
		return readAtZeroFill(t.segs[file].fh, p, off)
	})
}

// Close releases the layout's file handles.
func (t *TailLayout) Close() error {
	var firstErr error
	for _, s := range t.segs {
		for _, fh := range []fsio.File{s.fh, s.wfh} {
			if fh == nil {
				continue
			}
			if err := fh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	t.segs = nil
	return firstErr
}
