package sion

import (
	"bytes"
	"testing"

	"repro/internal/fsio"
)

// TestGridShift: a grid laid by GridShift has a cell boundary on each
// physical file's first chunk, shifts by less than a cell, and nests: the
// shift of a cell that a larger one is a multiple of is the larger
// shift mod the smaller cell.
func TestGridShift(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeTailFixture(t, fsys, "g.sion", false)
	tl, err := LoadTailLayout(fsys, "g.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	l := tl.Layout()
	first := map[int]int64{}
	for g := 0; g < l.NTasks(); g++ {
		b := l.RankBlocks(g)[0]
		if off, ok := first[b.File]; !ok || b.Off < off {
			first[b.File] = b.Off
		}
	}
	if len(first) != l.NumFiles() {
		t.Fatalf("chunks in %d of %d files", len(first), l.NumFiles())
	}
	for _, cell := range []int64{128, 256, 1024, 1000} {
		shift := l.GridShift(cell)
		for k, off := range first {
			if s := shift[k]; s < 0 || s >= cell || (off+s)%cell != 0 {
				t.Errorf("cell %d, file %d (first chunk at %d): shift %d", cell, k, off, s)
			}
		}
	}
	small, large := l.GridShift(128), l.GridShift(1024)
	for k := range small {
		if large[k]%128 != small[k] {
			t.Errorf("file %d: shift %d of 1024 B cells, %d of 128 B cells: the grids do not nest", k, large[k], small[k])
		}
	}
}

// TestReadRankAtSpansEmptyBlocks: a serial writer that skips a block
// leaves an empty extent in the rank's stream. A read across it returns
// the bytes on either side back to back, in one piece each: the empty
// extent is handed to read as no piece at all.
func TestReadRankAtSpansEmptyBlocks(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	sf, err := Create(fsys, "e.sion", []int64{128}, &Options{FSBlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{0, 2} {
		if err := sf.Seek(0, b, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(rankPayload(b, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	tl, err := LoadTailLayout(fsys, "e.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if blocks := tl.Layout().RankBlocks(0); len(blocks) != 3 || blocks[1].Bytes != 0 {
		t.Fatalf("blocks %+v, want three with an empty middle one", blocks)
	}
	got := make([]byte, 200)
	var pieces []int
	n, err := tl.Layout().ReadRankAt(0, got, 0, func(file int, p []byte, off int64) error {
		pieces = append(pieces, len(p))
		_, err := tl.File(file).ReadAt(p, off)
		return err
	})
	if n != 200 || err != nil || !bytes.Equal(got, append(rankPayload(0, 100), rankPayload(2, 100)...)) {
		t.Fatalf("read across the empty block: (%d, %v)", n, err)
	}
	if len(pieces) != 2 {
		t.Fatalf("read handed pieces of %v bytes, want two of 100", pieces)
	}
}
