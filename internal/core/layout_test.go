package sion

import (
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
