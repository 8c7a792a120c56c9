package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

func TestSerialCreateSeekWriteReadBack(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	sizes := []int64{100, 200, 300}
	sf, err := Create(fsys, "sw.sion", sizes, &Options{FSBlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Write into specific (rank, block, pos) positions like Listing 3.
	if err := sf.Seek(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	sf.Write([]byte("rank1-block0"))
	if err := sf.Seek(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	sf.Write([]byte("rank1-block2"))
	if err := sf.Seek(2, 0, 10); err != nil {
		t.Fatal(err)
	}
	sf.Write([]byte("offset-write"))
	// Seek back inside rank 0's written block and write fewer bytes: the
	// block keeps its high-water mark, in RankBytes and in metablock 2.
	sf.Seek(0, 0, 0)
	sf.Write([]byte("rank0-high-water"))
	sf.Seek(0, 0, 2)
	sf.Write([]byte("NK"))
	if got := sf.RankBytes(0); got != 16 {
		t.Fatalf("rank 0 bytes while writing = %d, want the high-water mark 16", got)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := Open(fsys, "sw.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	loc := rf.Locations()
	if got := len(loc.BlockBytes[1]); got != 3 {
		t.Fatalf("rank 1 blocks = %d, want 3 (sparse middle block)", got)
	}
	if loc.BlockBytes[1][1] != 0 {
		t.Fatalf("rank 1 middle block bytes = %d, want 0", loc.BlockBytes[1][1])
	}
	rf.Seek(1, 2, 0)
	b := make([]byte, 12)
	if _, err := io.ReadFull(rf, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "rank1-block2" {
		t.Fatalf("got %q", b)
	}
	// Rank 2: 10 zero bytes then the payload (high-water semantics).
	if rf.RankBytes(2) != 22 {
		t.Fatalf("rank 2 bytes = %d, want 22", rf.RankBytes(2))
	}
	got, _ := rf.ReadRank(2)
	if !bytes.Equal(got[10:], []byte("offset-write")) {
		t.Fatalf("rank 2 data = %q", got)
	}
	if bb := loc.BlockBytes[0]; len(bb) != 1 || bb[0] != 16 {
		t.Fatalf("rank 0 block bytes = %v, want [16]", bb)
	}
	if got, _ := rf.ReadRank(0); string(got) != "raNK0-high-water" {
		t.Fatalf("rank 0 data = %q", got)
	}
}

func TestSerialCreateWithChunkHeadersVerifies(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	sf, err := Create(fsys, "h.sion", []int64{64, 64}, &Options{FSBlockSize: 128, ChunkHeaders: true})
	if err != nil {
		t.Fatal(err)
	}
	sf.Seek(0, 0, 0)
	sf.Write([]byte("aaa"))
	sf.Seek(1, 0, 0)
	sf.Write([]byte("bbbb"))
	// Advance rank 0 past block 0, then revisit and extend it: its chunk
	// header must carry the final count, not the one it had when left.
	sf.Seek(0, 1, 0)
	sf.Write([]byte("next"))
	sf.Seek(0, 0, 3)
	sf.Write([]byte("ccc"))
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Verify(fsys, "h.sion"); err != nil {
		t.Fatal(err)
	}
	rf, err := Open(fsys, "h.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if got, _ := rf.ReadRank(0); string(got) != "aaacccnext" {
		t.Fatalf("rank 0 data = %q", got)
	}
}

func TestSerialCreateErrors(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	if _, err := Create(fsys, "x", nil, nil); err == nil {
		t.Fatal("empty chunk sizes accepted")
	}
	if _, err := Create(fsys, "x", []int64{0}, nil); err == nil {
		t.Fatal("zero chunk size accepted")
	}
	if _, err := Create(fsys, "x", []int64{10, 10}, &Options{
		Mapping: func(rank, n, nf int) int { return 99 },
	}); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
	if _, err := Create(fsys, "x", []int64{10, 10}, &Options{
		NFiles: 2, Mapping: func(rank, n, nf int) int { return 0 },
	}); err == nil {
		t.Fatal("a physical file without tasks accepted")
	}
	if _, err := Create(fsys, "x", []int64{10}, &Options{Watermarks: true}); err == nil {
		t.Fatal("serial watermarks accepted")
	}
	if _, err := Create(fsys, "x", []int64{10}, &Options{CollectorGroup: -5}); err == nil {
		t.Fatal("invalid options accepted")
	}
	// ParOpen cannot refuse a mapping one rank computes alone without
	// stranding the others: it places an out-of-range task in file 0.
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "m.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64,
			Mapping: func(rank, n, nf int) int { return rank - 1 }})
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			t.Error(err)
		}
	})
	if err := Verify(fsys, "m.sion"); err != nil {
		t.Fatal(err)
	}
}

// zeroBlockFS reports an FS block size of 0, as a misconfigured backend
// might.
type zeroBlockFS struct{ fsio.FileSystem }

func (zeroBlockFS) BlockSize(string) int64 { return 0 }

func TestSerialCreateRejectsZeroBlockSize(t *testing.T) {
	// ParOpen refuses a non-positive FS block size; Create must too, or a
	// staged write later divides by it.
	fsys := zeroBlockFS{fsio.NewOS(t.TempDir())}
	sf, err := Create(fsys, "z.sion", []int64{100}, &Options{BufferSize: 33})
	if err == nil {
		sf.Close()
		t.Fatal("Create accepted an FS block size of 0")
	}
	if !strings.Contains(err.Error(), "FS block size 0") {
		t.Fatalf("error %q does not name the block size", err)
	}
	mpi.Run(1, func(c *mpi.Comm) {
		_, err := ParOpen(c, fsys, "z.sion", WriteMode, &Options{ChunkSize: 100})
		if err == nil || !strings.Contains(err.Error(), "FS block size 0") {
			t.Errorf("ParOpen on an FS block size of 0: %v", err)
		}
	})
}

func TestSerialSeekValidation(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	sf, _ := Create(fsys, "s.sion", []int64{100}, &Options{FSBlockSize: 64})
	defer sf.Close()
	if err := sf.Seek(5, 0, 0); err == nil {
		t.Fatal("seek to invalid rank accepted")
	}
	if err := sf.Seek(0, -1, 0); err == nil {
		t.Fatal("negative block accepted")
	}
	if err := sf.Seek(0, 0, 1<<20); err == nil {
		t.Fatal("pos beyond capacity accepted")
	}
	if err := sf.Seek(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Write([]byte("x")); err != nil {
		t.Fatal("write after valid seek failed:", err)
	}
}

func TestSerialWriteBeforeSeekFails(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	sf, _ := Create(fsys, "b.sion", []int64{10}, nil)
	defer sf.Close()
	if _, err := sf.Write([]byte("x")); err == nil {
		t.Fatal("write before Seek accepted")
	}
}

func TestReadSeekOutsideRecordedData(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "r.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write([]byte("hello"))
		f.Close()
	})
	sf, err := Open(fsys, "r.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if err := sf.Seek(0, 1, 0); err == nil {
		t.Fatal("seek beyond recorded blocks accepted")
	}
	if err := sf.Seek(0, 0, 6); err == nil {
		t.Fatal("seek beyond recorded bytes accepted")
	}
}

// TestEmptyTaskReadsAsEmpty: a task that metablock 2 records with no
// block passes Verify, and every reader starts at its stream's start:
// ReadRank returns nothing for it, Split writes an empty file and Defrag
// an empty chunk, and the other tasks keep their bytes.
func TestEmptyTaskReadsAsEmpty(t *testing.T) {
	src := &memFS{files: map[string][]byte{"f.sion": remeta(t, seedMultifile(t, false), func(h *header, m *meta2) {
		m.BlockBytes[1] = nil
	})}}
	want := [][]byte{rankPayload(0, 150), nil, rankPayload(2, 230)}
	if err := Verify(src, "f.sion"); err != nil {
		t.Fatal(err)
	}
	out := fsio.NewOS(t.TempDir())
	if err := Split(src, "f.sion", out, "r%d", nil); err != nil {
		t.Fatal(err)
	}
	if err := Defrag(src, "f.sion", out, "d.sion"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f.sion", "d.sion"} {
		fsys := fsio.FileSystem(src)
		if name == "d.sion" {
			fsys = out
		}
		sf, err := Open(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		for r, w := range want {
			if got, err := sf.ReadRank(r); err != nil || !bytes.Equal(got, w) {
				t.Errorf("%s: ReadRank(%d) = %d bytes, %v; want %d bytes", name, r, len(got), err, len(w))
			}
		}
		if err := sf.Seek(1, 0, 1); err == nil {
			t.Errorf("%s: seek past an empty task's start accepted", name)
		}
		sf.Close()
	}
	for r, w := range want {
		fh, err := out.Open(fmt.Sprintf("r%d", r))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(w)+1)
		n, _ := fh.ReadAt(got, 0)
		fh.Close()
		if !bytes.Equal(got[:n], w) {
			t.Errorf("Split rank %d: %d bytes, want %d", r, n, len(w))
		}
	}
}

func TestPhysicalNames(t *testing.T) {
	names := PhysicalNames("a.sion", 3)
	want := []string{"a.sion", "a.sion.000001", "a.sion.000002"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestSyntheticIOOnRealFS(t *testing.T) {
	// WriteSynthetic writes literal zeros on the OS backend, so a
	// multifile written synthetically must read back as zeros.
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(3, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "z.sion", WriteMode, &Options{ChunkSize: 1000, FSBlockSize: 512})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteSynthetic(2500); err != nil { // spans 3 chunks
			t.Error(err)
		}
		f.Close()

		r, _ := ParOpen(c, fsys, "z.sion", ReadMode, nil)
		n, err := r.ReadSynthetic(10000)
		if err != nil {
			t.Error(err)
		}
		if n != 2500 {
			t.Errorf("rank %d: synthetic read %d, want 2500", c.Rank(), n)
		}
		r.Close()

		r2, _ := ParOpen(c, fsys, "z.sion", ReadMode, nil)
		buf := make([]byte, 2500)
		if _, err := io.ReadFull(r2, buf); err != nil {
			t.Error(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Errorf("rank %d: non-zero byte from synthetic write", c.Rank())
				break
			}
		}
		r2.Close()
	})
}

func TestDefragPreservesMultiFilePlacement(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 6
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "m.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64, NFiles: 3})
		f.Write(rankPayload(c.Rank(), 200)) // several blocks
		f.Close()
	})
	if err := Defrag(fsys, "m.sion", fsys, "m2.sion"); err != nil {
		t.Fatal(err)
	}
	src, _ := Open(fsys, "m.sion")
	dst, err := Open(fsys, "m2.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	ls, ld := src.Locations(), dst.Locations()
	if ld.NFiles != ls.NFiles {
		t.Fatalf("defrag changed file count: %d -> %d", ls.NFiles, ld.NFiles)
	}
	for r := 0; r < n; r++ {
		if ld.Placement[r].File != ls.Placement[r].File {
			t.Fatalf("rank %d moved from file %d to %d", r, ls.Placement[r].File, ld.Placement[r].File)
		}
		a, _ := src.ReadRank(r)
		b, _ := dst.ReadRank(r)
		if !bytes.Equal(a, b) {
			t.Fatalf("rank %d content differs after defrag", r)
		}
	}
}

// Defrag onto its own source refuses before Create truncates the segments
// it would still read, and the source keeps its bytes.
func TestDefragRefusesItsOwnSource(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n, size = 3, 50
	sf, err := Create(fsys, "a.sion", []int64{size, size, size}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := sf.Seek(r, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(rankPayload(r, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Defrag(fsys, "a.sion", fsys, "a.sion"); err == nil {
		t.Fatal("Defrag onto its own source reported success")
	}
	src, err := Open(fsys, "a.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for r := 0; r < n; r++ {
		if got, err := src.ReadRank(r); err != nil || !bytes.Equal(got, rankPayload(r, size)) {
			t.Fatalf("rank %d after the refused Defrag: %d bytes, err %v", r, len(got), err)
		}
	}
}

func TestSplitSubsetAndBadPattern(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(4, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "s.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write(rankPayload(c.Rank(), 40))
		f.Close()
	})
	for _, bad := range []string{"no-verb", "t-%s-%d.bin", "t-%d-%d.bin", "t-%d-%x.bin"} {
		if err := Split(fsys, "s.sion", fsys, bad, nil); err == nil {
			t.Fatalf("pattern %q accepted", bad)
		}
	}
	if err := Split(fsys, "s.sion", fsys, "out-%d", []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Split(fsys, "s.sion", fsys, "pct%%-%05d", []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat("pct%-00002"); err != nil {
		t.Fatal("widened rank verb after %% not extracted:", err)
	}
	if _, err := fsys.Stat("out-1"); err != nil {
		t.Fatal("selected rank not extracted")
	}
	if _, err := fsys.Stat("out-0"); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatal("unselected rank extracted")
	}
	if err := Split(fsys, "s.sion", fsys, "out-%d", []int{9}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestSerialFileDoubleCloseAndClosedOps calls every kind of handle on its
// closed state and in the wrong mode: each call must return an error and
// none may panic; a second Close is a no-op.
func TestSerialFileDoubleCloseAndClosedOps(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	type misuse struct {
		name string
		call func() error
	}
	reject := func(calls []misuse) {
		t.Helper()
		for _, m := range calls {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s panicked: %v", m.name, p)
					}
				}()
				if m.call() == nil {
					t.Errorf("%s accepted", m.name)
				}
			}()
		}
	}
	closeTwice := func(name string, c io.Closer) {
		t.Helper()
		if err := c.Close(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := c.Close(); err != nil {
			t.Errorf("%s: second close: %v", name, err)
		}
	}
	p := make([]byte, 8)

	// Serial write handle.
	sw, _ := Create(fsys, "c.sion", []int64{10}, nil)
	reject([]misuse{
		{"serial write: Read", func() error { _, err := sw.Read(p); return err }},
	})
	closeTwice("serial write", sw)
	reject([]misuse{
		{"closed serial: Seek", func() error { return sw.Seek(0, 0, 0) }},
		{"closed serial: Write", func() error { _, err := sw.Write(p); return err }},
	})

	// Parallel write handle, and ParOpen misuse.
	mpi.Run(1, func(c *mpi.Comm) {
		reject([]misuse{
			{"ParOpen: unknown mode", func() error { _, err := ParOpen(c, fsys, "p.sion", Mode(7), nil); return err }},
			{"ParOpen read: bad options", func() error {
				_, err := ParOpen(c, fsys, "c.sion", ReadMode, &Options{CollectorGroup: -5})
				return err
			}},
		})
		f, err := ParOpen(c, fsys, "p.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		if err != nil {
			t.Error(err)
			return
		}
		reject([]misuse{
			{"write File: Seek", func() error { return f.Seek(0, 0) }},
			{"write File: ReadSynthetic", func() error { _, err := f.ReadSynthetic(1); return err }},
			{"write File: ReadLogicalAt", func() error { _, err := f.ReadLogicalAt(p, 0); return err }},
			{"write File: NewKeyReader", func() error { _, err := NewKeyReader(f); return err }},
		})
		if f.EOF() {
			t.Error("write File: EOF reports true")
		}
		f.Write(p)
		closeTwice("write File", f)
		reject([]misuse{
			{"closed File: Flush", f.Flush},
			{"closed File: SetBufferSize", func() error { return f.SetBufferSize(BufferOff) }},
		})
	})

	// Read handles: a rank, the serial view, a mapped view, a layout.
	r, err := OpenRank(fsys, "p.sion", 0)
	if err != nil {
		t.Fatal(err)
	}
	reject([]misuse{
		{"read File: WriteSynthetic", func() error { return r.WriteSynthetic(1) }},
		{"read File: negative ReadLogicalAt", func() error { _, err := r.ReadLogicalAt(p, -1); return err }},
	})
	closeTwice("read File", r)
	sr, err := Open(fsys, "p.sion")
	if err != nil {
		t.Fatal(err)
	}
	reject([]misuse{
		{"serial read: Write", func() error { _, err := sr.Write(p); return err }},
		{"serial read: Read before Seek", func() error { _, err := sr.Read(p); return err }},
		{"serial read: ReadRank out of range", func() error { _, err := sr.ReadRank(1); return err }},
	})
	if n := sr.RankBytes(-1); n != 0 {
		t.Errorf("serial read: RankBytes(-1) = %d", n)
	}
	closeTwice("serial read", sr)
	mpi.Run(1, func(c *mpi.Comm) {
		mf, err := ParOpenMapped(c, fsys, "p.sion", ReadMode, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		closeTwice("MappedFile", mf)
		reject([]misuse{{"closed MappedFile: Rank", func() error { _, err := mf.Rank(0); return err }}})
	})
	tl, err := LoadTailLayout(fsys, "p.sion")
	if err != nil {
		t.Fatal(err)
	}
	l := tl.Layout()
	reject([]misuse{
		{"Layout: ReadRankAt rank -1", func() error { _, err := tl.ReadRankAt(-1, p, 0); return err }},
		{"Layout: ReadRankAt offset -1", func() error { _, err := tl.ReadRankAt(0, p, -1); return err }},
	})
	if l.RankBlocks(1) != nil {
		t.Error("Layout: RankBlocks(1) of one rank is not nil")
	}
	closeTwice("TailLayout", tl)

	// The simfs handle.
	h, err := simfs.New(simfs.Jugene()).View(0, nil).Create("h")
	if err != nil {
		t.Fatal(err)
	}
	reject([]misuse{{"simfs: negative WriteAt", func() error { _, err := h.WriteAt(p, -1); return err }}})
	closeTwice("simfs handle", h)
	reject([]misuse{
		{"closed simfs: WriteAt", func() error { _, err := h.WriteAt(p, 0); return err }},
		{"closed simfs: WriteZeroAt", func() error { return h.WriteZeroAt(8, 0) }},
		{"closed simfs: ReadDiscardAt", func() error { _, err := h.ReadDiscardAt(8, 0); return err }},
		{"closed simfs: Size", func() error { _, err := h.Size(); return err }},
		{"closed simfs: Truncate", func() error { return h.Truncate(0) }},
		{"closed simfs: Sync", h.Sync},
	})
}

func TestOpenRankMultiSegment(t *testing.T) {
	// OpenRank for a task living in segment > 0 must only need that
	// segment plus the mapping from segment 0.
	fsys := fsio.NewOS(t.TempDir())
	const n = 6
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "seg.sion", WriteMode, &Options{ChunkSize: 128, FSBlockSize: 128, NFiles: 3})
		f.Write(rankPayload(c.Rank(), 128))
		f.Close()
	})
	f, err := OpenRank(fsys, "seg.sion", n-1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.filenum != 2 {
		t.Fatalf("rank %d in file %d, want 2", n-1, f.filenum)
	}
	got := make([]byte, 128)
	io.ReadFull(f, got)
	if !bytes.Equal(got, rankPayload(n-1, 128)) {
		t.Fatal("content mismatch via OpenRank in segment 2")
	}
}
