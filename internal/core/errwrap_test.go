package sion

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/simfs"
)

// errReadInjected is the backend sentinel the wrapping tests assert on: every
// layer between a backend ReadAt and the caller must wrap with %w so
// errors.Is still finds it (the fsio sentinel contract — callers match
// fsio.ErrNotExist/ErrQuota the same way).
var errReadInjected = errors.New("injected backend failure")

// failReads is a rule that fails every read of at least min bytes with
// err.
func failReads(min int64, err error) func(fsio.Op) error {
	return func(op fsio.Op) error {
		if strings.HasPrefix(op.Call, "Read") && op.Len >= min {
			return err
		}
		return nil
	}
}

// TestBackendReadErrorsWrapThroughStaging pins that a backend read error
// surfaces errors.Is-able through every read path that can sit between
// the caller and the file: the direct chunk read, the read-ahead staging
// layer (buffer.go), ReadLogicalAt, and the serial ReadRank.
func TestBackendReadErrorsWrapThroughStaging(t *testing.T) {
	base := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "e.sion", WriteMode, &Options{ChunkSize: 256, FSBlockSize: 128})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 900))
		f.Close()
	})
	for _, mode := range []struct {
		label string
		buf   int64
	}{{"direct", BufferOff}, {"buffered", BufferAuto}} {
		fl := simfs.NewFlaky(simfs.FlakyConfig{})
		h, err := OpenRank(fl.Wrap(base, nil), "e.sion", 1)
		if err != nil {
			t.Fatalf("%s: %v", mode.label, err)
		}
		if err := h.SetBufferSize(mode.buf); err != nil {
			t.Fatal(err)
		}
		fl.SetRule(failReads(0, errReadInjected))
		if _, err := h.Read(make([]byte, 64)); !errors.Is(err, errReadInjected) {
			t.Errorf("%s: Read error %v does not wrap the backend error", mode.label, err)
		}
		if _, err := h.ReadLogicalAt(make([]byte, 64), 10); !errors.Is(err, errReadInjected) {
			t.Errorf("%s: ReadLogicalAt error %v does not wrap the backend error", mode.label, err)
		}
		fl.SetRule(nil)
		h.Close()
	}
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	sf, err := Open(fl.Wrap(base, nil), "e.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	fl.SetRule(failReads(0, errReadInjected))
	if _, err := sf.ReadRank(1); !errors.Is(err, errReadInjected) {
		t.Errorf("ReadRank error %v does not wrap the backend error", err)
	}
}

// TestBackendReadErrorsWrapThroughMetadata pins the same contract for the
// metadata parse paths (parseHeader/readTail, used by Open, OpenRank,
// LoadTailLayout): a backend failure surfaces its sentinel and is not
// ErrCorrupt, so an fsio.ErrTransient read classifies as transient and is
// retried; a file that ends inside its metadata is ErrCorrupt.
func TestBackendReadErrorsWrapThroughMetadata(t *testing.T) {
	dir := t.TempDir()
	base := fsio.NewOS(dir)
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "m.sion", WriteMode, &Options{ChunkSize: 256, FSBlockSize: 128})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 300))
		f.Close()
	})
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	fl.SetRule(failReads(0, errReadInjected))
	ffs := fl.Wrap(base, nil)
	if _, err := LoadTailLayout(ffs, "m.sion"); !errors.Is(err, errReadInjected) || errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadTailLayout error %v lacks the backend sentinel or is ErrCorrupt", err)
	}
	if _, err := Open(ffs, "m.sion"); !errors.Is(err, errReadInjected) {
		t.Errorf("Open error %v lacks the backend sentinel", err)
	}
	if _, err := OpenRank(ffs, "m.sion", 0); !errors.Is(err, errReadInjected) {
		t.Errorf("OpenRank error %v lacks the backend sentinel", err)
	}
	// Fail only the trailer's read, so the header parses and readTail's
	// read fails.
	fl.SetRule(func(op fsio.Op) error {
		if op.Call == "ReadAt" && op.Len == tailSize {
			return fsio.ErrTransient
		}
		return nil
	})
	for _, open := range []func() error{
		func() error { _, err := LoadTailLayout(ffs, "m.sion"); return err },
		func() error { _, err := Open(ffs, "m.sion"); return err },
	} {
		if err := open(); resil.Classify(err) != resil.ClassTransient {
			t.Errorf("transient metadata read: error %v classifies as %v", err, resil.Classify(err))
		}
	}
	fl.SetRule(nil)
	if err := os.Truncate(filepath.Join(dir, "m.sion"), headerFixedSize-1); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() error{
		func() error { _, err := LoadTailLayout(ffs, "m.sion"); return err },
		func() error { _, err := Open(ffs, "m.sion"); return err },
	} {
		if err := open(); !errors.Is(err, ErrCorrupt) || resil.Classify(err) != resil.ClassCorrupt {
			t.Errorf("truncated header: error %v is not ErrCorrupt", err)
		}
	}
}

// TestMappedSpanReadErrorWraps pins the collective mapped fetch path
// (fetchFileSpans): a span-read failure must fail every open in the
// collector's group, and on the collector itself — the rank that actually
// issued the backend read — the error must carry the backend sentinel.
// (Members only receive a status code over the wire; an error value
// cannot cross ranks.)
func TestMappedSpanReadErrorWraps(t *testing.T) {
	base := fsio.NewOS(t.TempDir())
	mpi.Run(4, func(c *mpi.Comm) {
		f, err := ParOpen(c, base, "s.sion", WriteMode, &Options{ChunkSize: 256, FSBlockSize: 128})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 500))
		f.Close()
	})
	// Fail only large reads: span reads cover whole chunk runs, metadata
	// reads stay small, so the open reaches the data fetch deterministically.
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	fl.SetRule(failReads(256, errReadInjected))
	ffs := fl.Wrap(base, nil)
	errs := make([]error, 2)
	mpi.Run(2, func(c *mpi.Comm) {
		_, err := ParOpenMapped(c, ffs, "s.sion", ReadMode, nil, &Options{CollectorGroup: 2})
		errs[c.Rank()] = err
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: mapped open succeeded despite failing span reads", r)
		}
	}
	if !errors.Is(errs[0], errReadInjected) {
		t.Errorf("collector error %v does not wrap the backend error", errs[0])
	}
}
