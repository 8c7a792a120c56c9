package sion

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// writeTailFixture writes a closed 4-task, 2-file multifile of 300 bytes
// per rank, with or without watermarks.
func writeTailFixture(t *testing.T, fsys fsio.FileSystem, name string, wm bool) {
	t.Helper()
	mpi.Run(4, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, name, WriteMode, &Options{ChunkSize: 256, FSBlockSize: 128, NFiles: 2, Watermarks: wm})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(rankPayload(c.Rank(), 300)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
}

// TestLoadTailLayoutClosed: a closed multifile loads final whether or not
// it was written with watermarks, and a watermarked one still does once
// its sidecars are gone. A segment with no sidecar and no trailer is
// ErrCorrupt, never a live snapshot.
func TestLoadTailLayoutClosed(t *testing.T) {
	for _, wm := range []bool{false, true} {
		t.Run(fmt.Sprintf("watermarks=%v", wm), func(t *testing.T) {
			dir := t.TempDir()
			fsys := fsio.NewOS(dir)
			writeTailFixture(t, fsys, "c.sion", wm)
			check := func() {
				t.Helper()
				tl, err := LoadTailLayout(fsys, "c.sion")
				if err != nil {
					t.Fatal(err)
				}
				defer tl.Close()
				if !tl.Layout().Final() || tl.Watermarked() != wm {
					t.Fatalf("final %v, watermarked %v; want true, %v", tl.Layout().Final(), tl.Watermarked(), wm)
				}
				if l, err := tl.Refresh(); l != tl.Layout() || err != nil {
					t.Fatalf("Refresh of a final layout: (%p, %v), want the same snapshot", l, err)
				}
				for r := 0; r < 4; r++ {
					got := make([]byte, 301)
					n, err := tl.ReadRankAt(r, got, 0)
					if n != 300 || err != io.EOF || !bytes.Equal(got[:n], rankPayload(r, 300)) {
						t.Fatalf("rank %d: read (%d, %v), want the 300 written bytes and io.EOF", r, n, err)
					}
				}
			}
			check()
			if wm {
				for k := 0; k < 2; k++ {
					if err := fsys.Remove(wmName("c.sion", k)); err != nil {
						t.Fatal(err)
					}
				}
				check()
			}
			// Cut file 1's trailer off: with no sidecar to load from, the
			// segment is corrupt.
			fh, err := fsys.OpenRW(fileName("c.sion", 1))
			if err != nil {
				t.Fatal(err)
			}
			size, err := fh.Size()
			if err == nil {
				err = fh.Truncate(size - 1)
			}
			fh.Close()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadTailLayout(fsys, "c.sion"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadTailLayout without a trailer: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLoadTailLayoutCorruptMapping: file 0's mapping names a local rank
// that the task's segment does not have. The loader reports ErrCorrupt,
// with and without watermarks, instead of indexing past the segment's
// tables.
func TestLoadTailLayoutCorruptMapping(t *testing.T) {
	for _, wm := range []bool{false, true} {
		t.Run(fmt.Sprintf("watermarks=%v", wm), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			writeTailFixture(t, fsys, "m.sion", wm)
			fh, err := fsys.OpenRW(fileName("m.sion", 0))
			if err != nil {
				t.Fatal(err)
			}
			h, err := parseHeader(fh)
			if err != nil {
				t.Fatal(err)
			}
			if loc := h.Mapping[3]; loc != (FileLoc{File: 1, LocalRank: 1}) {
				t.Fatalf("rank 3 maps to %+v, want file 1, local rank 1", loc)
			}
			// Rank 3's LocalRank field: past the fixed header, file 0's
			// per-task table and three 8-byte mapping entries, after File.
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], 3)
			_, err = fh.WriteAt(b[:], int64(headerFixedSize+16*int(h.NTasksLocal)+8*3+4))
			fh.Close()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadTailLayout(fsys, "m.sion"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadTailLayout: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLoadTailLayoutRejects damages one file of a closed watermarked
// multifile at a time: a segment or sidecar that is missing, unreadable
// or contradicts its header fails the load with the cause; a handle that
// fails to close fails Close.
func TestLoadTailLayoutRejects(t *testing.T) {
	flip := func(fsys fsio.FileSystem, name string, off int64) error {
		fh, err := fsys.OpenRW(name)
		if err != nil {
			return err
		}
		b := make([]byte, 1)
		if _, err = fh.ReadAt(b, off); err == nil {
			b[0] ^= 0x01
			_, err = fh.WriteAt(b, off)
		}
		return errors.Join(err, fh.Close())
	}
	for _, c := range []struct {
		name   string
		damage func(fsys fsio.FileSystem) error
		fail   string // a backend call on the sidecar that fails instead
		want   error
	}{
		{"segment 1 missing", func(fsys fsio.FileSystem) error { return fsys.Remove(fileName("m.sion", 1)) }, "", fsio.ErrNotExist},
		{"segment 1 header damaged", func(fsys fsio.FileSystem) error { return flip(fsys, fileName("m.sion", 1), 0) }, "", ErrCorrupt},
		{"sidecar unreadable", nil, "Open", errReadInjected},
		{"sidecar damaged", func(fsys fsio.FileSystem) error { return flip(fsys, wmName("m.sion", 0), 0) }, "", ErrCorrupt},
		{"sidecar of another file", func(fsys fsio.FileSystem) error { return flip(fsys, wmName("m.sion", 0), 16) }, "", ErrCorrupt},
	} {
		fsys := fsio.NewOS(t.TempDir())
		writeTailFixture(t, fsys, "m.sion", true)
		if c.damage != nil {
			if err := c.damage(fsys); err != nil {
				t.Fatal(err)
			}
		}
		fl := simfs.NewFlaky(simfs.FlakyConfig{})
		fl.SetRule(func(op fsio.Op) error {
			if op.Call == c.fail && op.Name == wmName("m.sion", 0) {
				return errReadInjected
			}
			return nil
		})
		if _, err := LoadTailLayout(fl.Wrap(fsys, nil), "m.sion"); !errors.Is(err, c.want) {
			t.Errorf("%s: LoadTailLayout = %v, want %v", c.name, err, c.want)
		}
	}
	fsys := fsio.NewOS(t.TempDir())
	writeTailFixture(t, fsys, "m.sion", false)
	tl, err := LoadTailLayout(fsio.Intercept(fsys, func(op fsio.Op) (int64, error) {
		if op.Call == "Close" {
			op.Do()
			return 0, errReadInjected
		}
		return op.Do()
	}), "m.sion")
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Close(); !errors.Is(err, errReadInjected) {
		t.Fatalf("Close = %v, want the failed close", err)
	}
}
