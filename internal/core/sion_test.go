package sion

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// runReal runs body on n ranks against a shared temp-dir OS file system.
func runReal(t *testing.T, n int, body func(c *mpi.Comm, fsys fsio.FileSystem)) {
	t.Helper()
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(n, func(c *mpi.Comm) { body(c, fsys) })
}

// runSim runs body on n simulated ranks against a simulated Jugene FS,
// each rank bound to its own view.
func runSim(t testing.TB, n int, body func(c *mpi.Comm, fsys fsio.FileSystem)) *simfs.FS {
	t.Helper()
	fs := simfs.New(simfs.Jugene())
	e := vtime.NewEngine()
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		body(c, fs.View(c.Rank(), c.Proc()))
	})
	return fs
}

// runBoth exercises both backends.
func runBoth(t *testing.T, n int, body func(c *mpi.Comm, fsys fsio.FileSystem)) {
	t.Helper()
	t.Run("osfs", func(t *testing.T) { runReal(t, n, body) })
	t.Run("simfs", func(t *testing.T) { runSim(t, n, body) })
}

// rankPayload generates a deterministic per-rank payload.
func rankPayload(rank, size int) []byte {
	out := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

func TestParallelWriteReadRoundTrip(t *testing.T) {
	const n = 8
	runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
		payload := rankPayload(c.Rank(), 1000+c.Rank()*137)
		f, err := ParOpen(c, fsys, "data.sion", WriteMode, &Options{ChunkSize: 4096, FSBlockSize: 512})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(payload); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}

		r, err := ParOpen(c, fsys, "data.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
		if !r.EOF() {
			t.Errorf("rank %d: EOF not reached", c.Rank())
		}
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestMultiBlockSpanningWrites(t *testing.T) {
	const n = 4
	runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
		// Chunk capacity 1024 (FSBlockSize 1024, ChunkSize 1000 → aligned
		// up); payload far larger forces many blocks via sion_fwrite.
		payload := rankPayload(c.Rank(), 10240+c.Rank()*511)
		f, err := ParOpen(c, fsys, "big.sion", WriteMode, &Options{ChunkSize: 1000, FSBlockSize: 1024})
		if err != nil {
			t.Error(err)
			return
		}
		// Write in awkward pieces.
		for off := 0; off < len(payload); off += 777 {
			end := off + 777
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := f.Write(payload[off:end]); err != nil {
				t.Error(err)
				return
			}
		}
		if len(f.blockBytes) < 10 {
			t.Errorf("rank %d: expected ≥10 blocks, got %d", c.Rank(), len(f.blockBytes))
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}

		r, err := ParOpen(c, fsys, "big.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: multi-block payload mismatch", c.Rank())
		}
		r.Close()
	})
}

func TestEnsureFreeSpaceSemantics(t *testing.T) {
	runBoth(t, 2, func(c *mpi.Comm, fsys fsio.FileSystem) {
		f, err := ParOpen(c, fsys, "efs.sion", WriteMode, &Options{ChunkSize: 512, FSBlockSize: 512})
		if err != nil {
			t.Error(err)
			return
		}
		if f.ChunkCapacity() != 512 {
			t.Errorf("capacity = %d", f.ChunkCapacity())
		}
		// ANSI-C style: ensure space, then write within the chunk.
		if err := f.EnsureFreeSpace(300); err != nil {
			t.Error(err)
		}
		f.Write(rankPayload(c.Rank(), 300))
		if got := f.BytesAvailInChunk(); got != 212 {
			t.Errorf("avail = %d, want 212", got)
		}
		// Needs a fresh chunk: 300 > 212 remaining.
		if err := f.EnsureFreeSpace(300); err != nil {
			t.Error(err)
		}
		if got := f.BytesAvailInChunk(); got != 512 {
			t.Errorf("avail after advance = %d, want 512", got)
		}
		if len(f.blockBytes) != 2 {
			t.Errorf("blocks = %d, want 2", len(f.blockBytes))
		}
		// Larger than the chunk itself must be rejected.
		if err := f.EnsureFreeSpace(513); err == nil {
			t.Error("EnsureFreeSpace beyond capacity succeeded")
		}
		f.Close()
	})
}

func TestPerTaskChunkSizes(t *testing.T) {
	const n = 5
	runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
		size := int64(256 * (c.Rank() + 1))
		f, err := ParOpen(c, fsys, "vary.sion", WriteMode, &Options{ChunkSize: size, FSBlockSize: 256})
		if err != nil {
			t.Error(err)
			return
		}
		payload := rankPayload(c.Rank(), int(size))
		f.Write(payload)
		f.Close()

		r, err := ParOpen(c, fsys, "vary.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, size)
		io.ReadFull(r, got)
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: mismatch with per-task chunk sizes", c.Rank())
		}
		r.Close()
	})
}

func TestMultiplePhysicalFiles(t *testing.T) {
	const n = 9
	for _, nfiles := range []int{2, 3, 4} {
		nfiles := nfiles
		t.Run(fmt.Sprintf("nfiles=%d", nfiles), func(t *testing.T) {
			runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
				payload := rankPayload(c.Rank(), 2048)
				f, err := ParOpen(c, fsys, "multi.sion", WriteMode,
					&Options{ChunkSize: 1024, FSBlockSize: 512, NFiles: nfiles})
				if err != nil {
					t.Error(err)
					return
				}
				if f.NumFiles() != nfiles {
					t.Errorf("NumFiles = %d", f.NumFiles())
				}
				f.Write(payload)
				f.Close()

				// The physical segments must exist.
				if c.Rank() == 0 {
					for k := 0; k < nfiles; k++ {
						if _, err := fsys.Stat(fileName("multi.sion", k)); err != nil {
							t.Errorf("segment %d missing: %v", k, err)
						}
					}
				}
				c.Barrier()

				r, err := ParOpen(c, fsys, "multi.sion", ReadMode, nil)
				if err != nil {
					t.Error(err)
					return
				}
				want := ContiguousMap(c.Rank(), n, nfiles)
				if r.filenum != want {
					t.Errorf("rank %d in file %d, want %d", c.Rank(), r.filenum, want)
				}
				got := make([]byte, len(payload))
				io.ReadFull(r, got)
				if !bytes.Equal(got, payload) {
					t.Errorf("rank %d: mismatch across %d files", c.Rank(), nfiles)
				}
				r.Close()
			})
		})
	}
}

// A custom mapping that puts global rank 0 into a file other than 0
// exercises the mapping forwarding to file 0's master.
func TestCustomMappingRank0NotInFile0(t *testing.T) {
	const n, nfiles = 6, 2
	shifted := func(rank, ntasks, nf int) int { return (rank + 3) / 3 % nf }
	runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
		payload := rankPayload(c.Rank(), 500)
		f, err := ParOpen(c, fsys, "shift.sion", WriteMode,
			&Options{ChunkSize: 512, FSBlockSize: 512, NFiles: nfiles, Mapping: shifted})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 && f.filenum != 1 {
			t.Errorf("rank 0 placed in file %d, want 1", f.filenum)
		}
		f.Write(payload)
		f.Close()

		r, err := ParOpen(c, fsys, "shift.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload))
		io.ReadFull(r, got)
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: mismatch under custom mapping", c.Rank())
		}
		r.Close()
	})
}

func TestSerialGlobalViewAfterParallelWrite(t *testing.T) {
	const n = 6
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "g.sion", WriteMode, &Options{ChunkSize: 400, FSBlockSize: 256, NFiles: 2})
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(rankPayload(c.Rank(), 900+10*c.Rank()))
		f.Close()
	})

	sf, err := Open(fsys, "g.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	loc := sf.Locations()
	if loc.NTasks != n || loc.NFiles != 2 {
		t.Fatalf("locations: %+v", loc)
	}
	for r := 0; r < n; r++ {
		want := rankPayload(r, 900+10*r)
		if sf.RankBytes(r) != int64(len(want)) {
			t.Fatalf("rank %d: RankBytes = %d, want %d", r, sf.RankBytes(r), len(want))
		}
		got, err := sf.ReadRank(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: serial read mismatch", r)
		}
	}
	// Seek into the middle of a specific chunk (global view, Listing 5).
	if err := sf.Seek(3, 1, 5); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 16)
	if _, err := sf.Read(b); err != nil {
		t.Fatal(err)
	}
	wantAll := rankPayload(3, 930)
	// Block 0 holds 400... wait: capacity = alignUp(400,256)=512; block 0
	// holds 512 bytes, so (block 1, pos 5) is logical offset 517.
	if !bytes.Equal(b, wantAll[512+5:512+5+16]) {
		t.Fatal("seek+read returned wrong window")
	}
}

func TestSerialCreateThenParallelRead(t *testing.T) {
	const n = 5
	fsys := fsio.NewOS(t.TempDir())
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(300 + 100*i)
	}
	sf, err := Create(fsys, "pre.sion", sizes, &Options{FSBlockSize: 256, NFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := sf.Seek(r, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Write(rankPayload(r, 200+50*r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	mpi.Run(n, func(c *mpi.Comm) {
		r, err := ParOpen(c, fsys, "pre.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		want := rankPayload(c.Rank(), 200+50*c.Rank())
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: parallel read of serial file mismatch", c.Rank())
		}
		r.Close()
	})
}

func TestOpenRankLocalView(t *testing.T) {
	const n = 7
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "lv.sion", WriteMode, &Options{ChunkSize: 600, FSBlockSize: 512, NFiles: 3})
		f.Write(rankPayload(c.Rank(), 1500))
		f.Close()
	})
	for r := 0; r < n; r++ {
		f, err := OpenRank(fsys, "lv.sion", r)
		if err != nil {
			t.Fatal(err)
		}
		want := rankPayload(r, 1500)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(f, got); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d: OpenRank mismatch", r)
		}
		if !f.EOF() {
			t.Fatalf("rank %d: EOF false after full read", r)
		}
		// Seek back within the rank view.
		if err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 10)
		io.ReadFull(f, b)
		if !bytes.Equal(b, want[:10]) {
			t.Fatalf("rank %d: Seek(0,0) reread mismatch", r)
		}
		f.Close()
	}
	if _, err := OpenRank(fsys, "lv.sion", n); err == nil {
		t.Fatal("OpenRank beyond task count succeeded")
	}
}

func TestEOFAndBytesAvailReadSide(t *testing.T) {
	runBoth(t, 3, func(c *mpi.Comm, fsys fsio.FileSystem) {
		f, _ := ParOpen(c, fsys, "eof.sion", WriteMode, &Options{ChunkSize: 128, FSBlockSize: 128})
		f.Write(rankPayload(c.Rank(), 300)) // 2 full chunks + 44 bytes
		f.Close()

		r, err := ParOpen(c, fsys, "eof.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			return
		}
		reads := 0
		var total int
		for !r.EOF() {
			n := r.BytesAvailInChunk()
			if n == 0 {
				t.Errorf("BytesAvailInChunk 0 but not EOF")
				break
			}
			buf := make([]byte, n)
			m, err := r.Read(buf)
			if err != nil {
				t.Error(err)
				break
			}
			total += m
			reads++
		}
		if total != 300 {
			t.Errorf("rank %d: read %d bytes, want 300", c.Rank(), total)
		}
		if reads != 3 {
			t.Errorf("rank %d: %d chunk reads, want 3", c.Rank(), reads)
		}
		r.Close()
	})
}

func TestChunkHeadersVerify(t *testing.T) {
	runBoth(t, 4, func(c *mpi.Comm, fsys fsio.FileSystem) {
		f, err := ParOpen(c, fsys, "hdr.sion", WriteMode,
			&Options{ChunkSize: 256, FSBlockSize: 256, ChunkHeaders: true})
		if err != nil {
			t.Error(err)
			return
		}
		// Capacity shrinks by the 64-byte header but stays ≥ requested:
		// aligned = 512, capacity = 448 ≥ 256.
		if f.ChunkCapacity() < 256 {
			t.Errorf("capacity %d < requested 256", f.ChunkCapacity())
		}
		f.Write(rankPayload(c.Rank(), 1000))
		f.Close()

		if c.Rank() == 0 {
			if err := Verify(fsys, "hdr.sion"); err != nil {
				t.Errorf("Verify: %v", err)
			}
		}
		c.Barrier()
		r, _ := ParOpen(c, fsys, "hdr.sion", ReadMode, nil)
		got := make([]byte, 1000)
		io.ReadFull(r, got)
		if !bytes.Equal(got, rankPayload(c.Rank(), 1000)) {
			t.Errorf("rank %d: chunk-header file mismatch", c.Rank())
		}
		r.Close()
	})
}

// parImages writes f.sion with ParOpen from n ranks, each writing 300
// bytes, and returns every file the write left, by name.
func parImages(t *testing.T, n int, o Options) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	mpi.Run(n, func(c *mpi.Comm) {
		o := o
		f, err := ParOpen(c, fsio.NewOS(dir), "f.sion", WriteMode, &o)
		if err == nil {
			_, err = f.Write(rankPayload(c.Rank(), 300))
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			t.Error(err)
		}
	})
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestVerifyRejects feeds Verify multifiles that parse but whose metadata
// contradicts itself, each damaged by one named mutation: every one must
// give ErrCorrupt, and the intact sources must verify.
func TestVerifyRejects(t *testing.T) {
	srcs := map[string]map[string][]byte{
		"plain":      {"f.sion": seedMultifile(t, false)},
		"headers":    {"f.sion": seedMultifile(t, true)},
		"nfiles2":    parImages(t, 4, Options{ChunkSize: 256, FSBlockSize: 128, NFiles: 2}),
		"watermarks": parImages(t, 2, Options{ChunkSize: 256, FSBlockSize: 128, Watermarks: true}),
	}
	for name, files := range srcs {
		if err := Verify(&memFS{files: files}, "f.sion"); err != nil {
			t.Fatalf("intact %s source: %v", name, err)
		}
	}
	// A closed multifile whose sidecar is gone verifies too.
	if err := Verify(&memFS{files: map[string][]byte{"f.sion": srcs["watermarks"]["f.sion"]}}, "f.sion"); err != nil {
		t.Fatalf("watermarked source without its sidecar: %v", err)
	}
	meta := func(edit func(h *header, m *meta2)) func(tb testing.TB, b []byte) []byte {
		return func(tb testing.TB, b []byte) []byte { return remeta(tb, b, edit) }
	}
	raw := func(off int, v byte) func(tb testing.TB, b []byte) []byte {
		return func(tb testing.TB, b []byte) []byte {
			b = append([]byte(nil), b...)
			b[off] ^= v
			return b
		}
	}
	chunk0 := func(h *header) int64 { g := newGeometry(h); return g.chunkOff(0, 0) }
	hdrs := srcs["headers"]["f.sion"]
	for _, c := range []struct {
		name, want, src, file string
		mutate                func(tb testing.TB, b []byte) []byte
		hook                  func(op fsio.Op) (int64, error) // a lying backend, when not nil
	}{
		{"two tasks share a placement", "tasks share placement", "plain", "f.sion",
			meta(func(h *header, m *meta2) { h.Mapping[1] = h.Mapping[0] }), nil},
		{"global rank differs from the mapping", "says global rank", "plain", "f.sion",
			meta(func(h *header, m *meta2) { h.GlobalRanks[0], h.GlobalRanks[1] = 1, 0 }), nil},
		{"block bytes exceed the chunk capacity", "holds 1048576 bytes", "plain", "f.sion",
			meta(func(h *header, m *meta2) { m.BlockBytes[2][0] = 1 << 20 }), nil},
		{"negative block bytes", "holds -1 bytes", "plain", "f.sion",
			meta(func(h *header, m *meta2) { m.BlockBytes[1][0] = -1 }), nil},
		{"mapping beyond its segment", "maps to local rank 3", "nfiles2", "f.sion",
			meta(func(h *header, m *meta2) { h.Mapping[3].LocalRank = 3 }), nil},
		{"watermark committed more than metablock 2 records", "watermark committed", "watermarks", "f.sion",
			meta(func(h *header, m *meta2) { m.BlockBytes[0][1]-- }), nil},
		{"watermark committed a block metablock 2 lacks", "metablock 2 records -1", "watermarks", "f.sion",
			meta(func(h *header, m *meta2) { m.BlockBytes[1] = m.BlockBytes[1][:1] }), nil},
		{"sidecar unparsable", "bad watermark magic", "watermarks", "f.sion.wmk", raw(0, 0xff), nil},
		{"sidecar of another segment", "sidecar describes", "watermarks", "f.sion.wmk", raw(16, 0x01), nil},
		{"sidecar implausibly large", "implausibly large", "watermarks", "", nil, func(op fsio.Op) (int64, error) {
			if op.Call == "Size" && op.Name == "f.sion.wmk" {
				return 1 << 62, nil
			}
			return op.Do()
		}},
		{"chunk header disagrees with metablock 2", "disagrees with metablock 2", "headers", "f.sion",
			meta(func(h *header, m *meta2) { m.BlockBytes[0][0]-- }), nil},
		{"chunk header damaged", "bad chunk header", "headers", "f.sion",
			raw(int(chunk0(mustHeader(t, hdrs)))+8, 0x01), nil},
		{"chunk header past the end of the file", "chunk header truncated", "headers", "f.sion",
			func(tb testing.TB, b []byte) []byte {
				// Metablock 2 claims a second block that the file ends before.
				h := mustHeader(tb, b)
				g := newGeometry(h)
				m, _ := readTail(&memFile{b: b}, int(h.NTasksLocal))
				m.BlockBytes[2] = append(m.BlockBytes[2], 1)
				return withMeta2(b[:g.chunkOff(0, 1)], m.encode())
			}, nil},
	} {
		files := map[string][]byte{}
		for n, b := range srcs[c.src] {
			files[n] = b
		}
		if c.mutate != nil {
			files[c.file] = c.mutate(t, files[c.file])
		}
		var fsys fsio.FileSystem = &memFS{files: files}
		if c.hook != nil {
			fsys = fsio.Intercept(fsys, c.hook)
		}
		if err := Verify(fsys, "f.sion"); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify = %v, want ErrCorrupt naming %q", c.name, err, c.want)
		}
	}
}

// TestParOpenReadRejects: the parallel read open parses each segment on one
// rank and ships its records to the readers. A segment that disagrees with
// file 0 fails the open on every rank that reads from it, and only there;
// the parser that found the damage reports ErrCorrupt.
func TestParOpenReadRejects(t *testing.T) {
	src := parImages(t, 4, Options{ChunkSize: 256, FSBlockSize: 128, NFiles: 2})
	for _, c := range []struct {
		name, file string
		edit       func(h *header, m *meta2) // nil: the file is missing
		fails      [4]bool                   // ranks 2 and 3 live in file 1; rank 2 parses it
		corrupt    bool                      // every failing rank's error wraps ErrCorrupt, or none does
	}{
		{"segment disagrees on the task count", "f.sion.000001",
			func(h *header, m *meta2) { h.NTasksGlobal = 5 }, [4]bool{false, false, true, true}, true},
		{"mapping beyond its segment", "f.sion",
			func(h *header, m *meta2) { h.Mapping[3].LocalRank = 3 }, [4]bool{false, false, false, true}, true},
		{"segment missing", "f.sion.000001", nil, [4]bool{false, false, true, true}, false},
	} {
		files := map[string][]byte{}
		for n, b := range src {
			files[n] = b
		}
		if c.edit == nil {
			delete(files, c.file)
		} else {
			files[c.file] = remeta(t, files[c.file], c.edit)
		}
		var errs [4]error
		mpi.Run(4, func(cm *mpi.Comm) {
			f, err := ParOpen(cm, &memFS{files: files}, "f.sion", ReadMode, nil)
			if errs[cm.Rank()] = err; err == nil {
				f.Close()
			}
		})
		for r, err := range errs {
			if (err != nil) != c.fails[r] {
				t.Errorf("%s: rank %d: ParOpen = %v", c.name, r, err)
			}
			if err != nil && errors.Is(err, ErrCorrupt) != c.corrupt {
				t.Errorf("%s: rank %d: ParOpen = %v; wraps ErrCorrupt: %v, want %v", c.name, r, err, !c.corrupt, c.corrupt)
			}
		}
	}
}

// mustHeader parses metablock 1 of a segment image.
func mustHeader(tb testing.TB, img []byte) *header {
	tb.Helper()
	h, err := parseHeader(&memFile{b: img})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

func TestDump(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(3, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "d.sion", WriteMode, &Options{ChunkSize: 100, FSBlockSize: 64, NFiles: 2})
		f.Write(rankPayload(c.Rank(), 50))
		f.Close()
	})
	var buf bytes.Buffer
	if err := Dump(fsys, "d.sion", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tasks:         3", "physical files:2", "segment 1"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
	// DumpMapping needs file 0 and its header.
	if err := DumpMapping(fsys, "missing.sion", io.Discard); !errors.Is(err, fsio.ErrNotExist) {
		t.Fatalf("DumpMapping of a missing multifile: %v", err)
	}
	bad := &memFS{files: map[string][]byte{"b.sion": []byte("not a multifile")}}
	if err := DumpMapping(bad, "b.sion", io.Discard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DumpMapping of a damaged header: %v", err)
	}
}

func TestSplitRecreatesTaskLocalFiles(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 5
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "s.sion", WriteMode, &Options{ChunkSize: 333, FSBlockSize: 256, NFiles: 2})
		f.Write(rankPayload(c.Rank(), 800+c.Rank()))
		f.Close()
	})
	if err := Split(fsys, "s.sion", fsys, "task-%d.bin", nil); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		fh, err := fsys.Open(fmt.Sprintf("task-%d.bin", r))
		if err != nil {
			t.Fatal(err)
		}
		want := rankPayload(r, 800+r)
		sz, _ := fh.Size()
		if sz != int64(len(want)) {
			t.Fatalf("task %d: size %d want %d", r, sz, len(want))
		}
		got := make([]byte, sz)
		fh.ReadAt(got, 0)
		fh.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("task %d: split content mismatch", r)
		}
	}
}

func TestDefragContractsBlocks(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 5
	// Rank r < 4 writes r+1 chunks' worth → different block counts → gaps;
	// rank 4 writes nothing.
	size := func(r int) int { return 128 * (r + 1) % 640 }
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "frag.sion", WriteMode, &Options{ChunkSize: 100, FSBlockSize: 128})
		f.Write(rankPayload(c.Rank(), size(c.Rank())))
		f.Close()
	})
	if err := Defrag(fsys, "frag.sion", fsys, "tight.sion"); err != nil {
		t.Fatal(err)
	}
	sf, err := Open(fsys, "tight.sion")
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	loc := sf.Locations()
	for r := 0; r < n; r++ {
		if len(loc.BlockBytes[r]) != 1 {
			t.Fatalf("rank %d: %d blocks after defrag, want 1", r, len(loc.BlockBytes[r]))
		}
		got, _ := sf.ReadRank(r)
		if !bytes.Equal(got, rankPayload(r, size(r))) {
			t.Fatalf("rank %d: defrag content mismatch", r)
		}
	}
	if err := Verify(fsys, "tight.sion"); err != nil {
		t.Fatal(err)
	}
}

func TestRepairAfterLostMetablock(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 4
	mpi.Run(n, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "r.sion", WriteMode,
			&Options{ChunkSize: 200, FSBlockSize: 256, ChunkHeaders: true})
		f.Write(rankPayload(c.Rank(), 700)) // multiple blocks each
		f.Close()
	})
	// Simulate the paper's failure: the trailer/metablock 2 is lost.
	fh, _ := fsys.OpenRW("r.sion")
	sz, _ := fh.Size()
	fh.Truncate(sz - tailSize - 8)
	fh.Close()
	if _, err := Open(fsys, "r.sion"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after truncation: %v, want ErrCorrupt", err)
	}

	rec, err := Repair(fsys, "r.sion")
	if err != nil {
		t.Fatal(err)
	}
	if rec == 0 {
		t.Fatal("Repair recovered nothing")
	}
	sf, err := Open(fsys, "r.sion")
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer sf.Close()
	for r := 0; r < n; r++ {
		got, err := sf.ReadRank(r)
		if err != nil {
			t.Fatal(err)
		}
		want := rankPayload(r, 700)
		// The final, possibly partially recorded block may recover with
		// padding up to capacity; everything written must be present.
		if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("rank %d: repaired data mismatch (%d bytes)", r, len(got))
		}
	}
}

func TestRepairWithoutChunkHeadersFails(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "nh.sion", WriteMode, &Options{ChunkSize: 100, FSBlockSize: 128})
		f.Write([]byte("x"))
		f.Close()
	})
	if _, err := Repair(fsys, "nh.sion"); err == nil {
		t.Fatal("Repair without chunk headers succeeded")
	}
}

func TestZlibCompressionRoundTrip(t *testing.T) {
	const n = 3
	runBoth(t, n, func(c *mpi.Comm, fsys fsio.FileSystem) {
		// Highly compressible payload, as in trace data.
		payload := bytes.Repeat([]byte(fmt.Sprintf("event-from-rank-%d|", c.Rank())), 500)
		f, err := ParOpen(c, fsys, "z.sion", WriteMode, &Options{ChunkSize: 4096, FSBlockSize: 512})
		if err != nil {
			t.Error(err)
			return
		}
		zw, _ := NewZWriter(f)
		zw.Write(payload)
		if err := zw.Close(); err != nil {
			t.Error(err)
		}
		compressed := f.blockBytes[0]
		if compressed >= int64(len(payload))/2 {
			t.Errorf("rank %d: compression ineffective: %d of %d", c.Rank(), compressed, len(payload))
		}
		f.Close()

		r, _ := ParOpen(c, fsys, "z.sion", ReadMode, nil)
		zr, err := NewZReader(r)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d: zlib round-trip mismatch", c.Rank())
		}
		zr.Close()
		r.Close()
	})
}

// --- Error handling ----------------------------------------------------------

func TestOpenMissingMultifile(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	if _, err := Open(fsys, "absent.sion"); err == nil {
		t.Fatal("Open of missing multifile succeeded")
	}
	mpi.Run(2, func(c *mpi.Comm) {
		if _, err := ParOpen(c, fsys, "absent.sion", ReadMode, nil); err == nil {
			t.Error("ParOpen of missing multifile succeeded")
		}
	})
}

// runWithin is mpi.Run that fails the test instead of hanging when the
// ranks have not all returned after d.
func runWithin(t *testing.T, d time.Duration, n int, body func(c *mpi.Comm)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mpi.Run(n, body)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%d ranks still running after %v", n, d)
	}
}

// A same-count read of a multifile written by another task count fails on
// every rank, in both directions, with an error naming both counts — also
// on a rank ≥ N, whose own rank is no writer rank at all.
func TestTaskCountMismatch(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(4, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "m.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write([]byte("data"))
		f.Close()
	})
	for _, m := range []int{3, 5} {
		runWithin(t, 10*time.Second, m, func(c *mpi.Comm) {
			_, err := ParOpen(c, fsys, "m.sion", ReadMode, nil)
			if err == nil {
				t.Errorf("M=%d rank %d: ParOpen with wrong task count succeeded", m, c.Rank())
				return
			}
			want := fmt.Sprintf("written by 4 tasks but is opened by %d", m)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("M=%d rank %d: error %q does not say %q", m, c.Rank(), err, want)
			}
		})
	}
}

// Close on a read handle is local: rank 0 closes before any peer starts
// reading, and the peers still read their data and close.
func TestReadCloseIsNotCollective(t *testing.T) {
	const n = 4
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "rc.sion", n, 1, 256, 128, ContiguousMap, []int{300, 300, 300, 300})
	closed := make(chan struct{})
	runWithin(t, 10*time.Second, n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "rc.sion", ReadMode, nil)
		if err != nil {
			t.Error(err)
			if c.Rank() == 0 {
				close(closed)
			}
			return
		}
		if c.Rank() == 0 {
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			close(closed)
			return
		}
		<-closed
		got := make([]byte, 300)
		if _, err := io.ReadFull(f, got); err != nil || !bytes.Equal(got, rankPayload(c.Rank(), 300)) {
			t.Errorf("rank %d: read after rank 0's Close: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestInvalidChunkSizeIsCollectiveError(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(3, func(c *mpi.Comm) {
		size := int64(128)
		if c.Rank() == 1 {
			size = 0 // invalid on one rank only
		}
		_, err := ParOpen(c, fsys, "bad.sion", WriteMode, &Options{ChunkSize: size, FSBlockSize: 64})
		if err == nil {
			t.Errorf("rank %d: ParOpen with rank-1 zero chunk size succeeded", c.Rank())
		}
	})
}

func TestCorruptHeaderDetected(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "c.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write([]byte("ok"))
		f.Close()
	})
	fh, _ := fsys.OpenRW("c.sion")
	fh.WriteAt([]byte("XXXX"), 0) // clobber magic
	fh.Close()
	if _, err := Open(fsys, "c.sion"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptMetablock2CRC(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "crc.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		f.Write([]byte("ok"))
		f.Close()
	})
	fh, _ := fsys.OpenRW("crc.sion")
	sz, _ := fh.Size()
	fh.WriteAt([]byte{0xFF}, sz-tailSize-2) // flip a byte inside metablock 2
	fh.Close()
	if _, err := Open(fsys, "crc.sion"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestModeViolations(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "mv.sion", WriteMode, &Options{ChunkSize: 64, FSBlockSize: 64})
		if _, err := f.Read(make([]byte, 4)); err == nil {
			t.Error("Read on write handle succeeded")
		}
		f.Write([]byte("abcd"))
		f.Close()
		if _, err := f.Write([]byte("after close")); err == nil {
			t.Error("Write on closed handle succeeded")
		}

		r, _ := ParOpen(c, fsys, "mv.sion", ReadMode, nil)
		if _, err := r.Write([]byte("nope")); err == nil {
			t.Error("Write on read handle succeeded")
		}
		if err := r.EnsureFreeSpace(8); err == nil {
			t.Error("EnsureFreeSpace on read handle succeeded")
		}
		r.Close()
	})
}

func TestQuotaFailureSurfacesAndRepairRecovers(t *testing.T) {
	// Write with a quota that trips mid-run on the simulated FS (the
	// paper's §6 failure scenario), then repair from chunk headers. The
	// quota is a Flaky rule: a write that would take the bytes written
	// past 1 MiB fails with fsio.ErrQuota.
	fs := simfs.New(simfs.Jugene())
	fl := simfs.NewFlaky(simfs.FlakyConfig{})
	var written int64
	fl.SetRule(func(op fsio.Op) error {
		if op.Call != "WriteAt" && op.Call != "WriteZeroAt" {
			return nil
		}
		if written+op.Len > 1<<20 {
			return fmt.Errorf("%s: %w", op.Name, fsio.ErrQuota)
		}
		written += op.Len
		return nil
	})
	e := vtime.NewEngine()
	const n = 4
	var quotaHit bool
	var mu sync.Mutex
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		fsys := fl.Wrap(fs.View(c.Rank(), c.Proc()), nil)
		f, err := ParOpen(c, fsys, "q.sion", WriteMode, &Options{ChunkSize: 4096, FSBlockSize: 4096, ChunkHeaders: true})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 200; i++ {
			if _, err := f.Write(rankPayload(c.Rank(), 4096)); err != nil {
				if errors.Is(err, fsio.ErrQuota) {
					mu.Lock()
					quotaHit = true
					mu.Unlock()
				}
				break
			}
		}
		// The application dies before the collective close: no metablock 2.
		f.fh.Close()
	})
	if !quotaHit {
		t.Fatal("quota never tripped")
	}
	view := fs.View(0, nil)
	if _, err := Open(view, "q.sion"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open without close: %v, want ErrCorrupt", err)
	}
	if _, err := Repair(view, "q.sion"); err != nil {
		t.Fatal(err)
	}
	sf, err := Open(view, "q.sion")
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	sf.Close()
}

// --- Property-based tests -----------------------------------------------------

// Geometry invariants: chunks are block-aligned, non-overlapping, ordered,
// and capacity covers the requested size.
func TestGeometryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		ntasks := 1 + rng.Intn(20)
		fsblk := int64(1) << (6 + rng.Intn(8)) // 64 .. 8192
		h := &header{
			FSBlockSize:  fsblk,
			NTasksGlobal: int32(ntasks),
			NTasksLocal:  int32(ntasks),
			NFiles:       1,
			GlobalRanks:  make([]int64, ntasks),
			ChunkSizes:   make([]int64, ntasks),
		}
		if rng.Intn(2) == 0 {
			h.Flags = flagChunkHeaders
		}
		for i := range h.ChunkSizes {
			h.GlobalRanks[i] = int64(i)
			h.ChunkSizes[i] = 1 + int64(rng.Intn(100000))
		}
		g := newGeometry(h)
		if g.start%fsblk != 0 {
			t.Fatalf("start %d not aligned to %d", g.start, fsblk)
		}
		if g.start < int64(h.encodedSize()) {
			t.Fatalf("start %d overlaps header %d", g.start, h.encodedSize())
		}
		var prev int64
		for i := 0; i < ntasks; i++ {
			if g.aligned[i]%fsblk != 0 {
				t.Fatalf("aligned[%d]=%d not a block multiple", i, g.aligned[i])
			}
			if g.capacity(i) < h.ChunkSizes[i] {
				t.Fatalf("capacity %d < requested %d", g.capacity(i), h.ChunkSizes[i])
			}
			off := g.chunkOff(i, 0)
			if off%fsblk != 0 {
				t.Fatalf("chunkOff(%d,0)=%d not block aligned", i, off)
			}
			if i > 0 && off < prev {
				t.Fatalf("chunk %d overlaps predecessor", i)
			}
			prev = off + g.aligned[i]
			// Block 1 of task i must start exactly stride later.
			if g.chunkOff(i, 1)-off != g.stride {
				t.Fatalf("stride violated for task %d", i)
			}
		}
		if prev != g.start+g.stride {
			t.Fatalf("stride %d != end of last chunk %d", g.stride, prev-g.start)
		}
	}
}

// Header and metablock-2 encode/parse round-trip over a memory file.
func TestMetadataEncodeParseProperty(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		ntasks := 1 + rng.Intn(12)
		h := &header{
			FSBlockSize:  512,
			NTasksGlobal: int32(ntasks),
			NTasksLocal:  int32(ntasks),
			NFiles:       1,
			FileNum:      0,
			Flags:        uint64(rng.Intn(2)),
			MaxChunks:    int32(rng.Intn(10)),
			GlobalRanks:  make([]int64, ntasks),
			ChunkSizes:   make([]int64, ntasks),
			Mapping:      make([]FileLoc, ntasks),
		}
		for i := 0; i < ntasks; i++ {
			h.GlobalRanks[i] = int64(i)
			h.ChunkSizes[i] = 1 + int64(rng.Intn(1<<20))
			h.Mapping[i] = FileLoc{File: 0, LocalRank: int32(i)}
		}
		name := fmt.Sprintf("meta-%d.bin", iter)
		fh, _ := fsys.Create(name)
		fh.WriteAt(h.encode(), 0)
		got, err := parseHeader(fh)
		if err != nil {
			t.Fatal(err)
		}
		if got.NTasksLocal != h.NTasksLocal || got.FSBlockSize != h.FSBlockSize || got.Flags != h.Flags {
			t.Fatalf("header round-trip: %+v vs %+v", got, h)
		}
		for i := range h.ChunkSizes {
			if got.ChunkSizes[i] != h.ChunkSizes[i] || got.GlobalRanks[i] != h.GlobalRanks[i] {
				t.Fatalf("tables differ at %d", i)
			}
		}

		m2 := &meta2{BlockBytes: make([][]int64, ntasks)}
		for i := range m2.BlockBytes {
			bb := make([]int64, 1+rng.Intn(5))
			for b := range bb {
				bb[b] = int64(rng.Intn(1 << 20))
			}
			m2.BlockBytes[i] = bb
		}
		at := alignUp(int64(h.encodedSize()), 512)
		if _, err := writeTail(fh, m2, at); err != nil {
			t.Fatal(err)
		}
		gm, err := readTail(fh, ntasks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m2.BlockBytes {
			if len(gm.BlockBytes[i]) != len(m2.BlockBytes[i]) {
				t.Fatalf("m2 block count differs at %d", i)
			}
			for b := range m2.BlockBytes[i] {
				if gm.BlockBytes[i][b] != m2.BlockBytes[i][b] {
					t.Fatalf("m2 differs at %d/%d", i, b)
				}
			}
		}
		fh.Close()
	}
}

// Random write-pattern round trips: arbitrary piece sizes, chunk sizes,
// file counts, and backends must always reproduce each rank's stream.
func TestRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 12; iter++ {
		n := 1 + rng.Intn(8)
		nfiles := 1 + rng.Intn(n)
		fsblk := int64(1) << (6 + rng.Intn(5))
		chunk := 1 + int64(rng.Intn(4000))
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = rng.Intn(20000)
		}
		hdrs := rng.Intn(2) == 0
		fsys := fsio.NewOS(t.TempDir())
		ok := true
		mpi.Run(n, func(c *mpi.Comm) {
			f, err := ParOpen(c, fsys, "p.sion", WriteMode, &Options{
				ChunkSize: chunk, FSBlockSize: fsblk, NFiles: nfiles, ChunkHeaders: hdrs,
			})
			if err != nil {
				t.Error(err)
				ok = false
				return
			}
			payload := rankPayload(c.Rank(), sizes[c.Rank()])
			rest := payload
			pieceRng := rand.New(rand.NewSource(int64(iter*100 + c.Rank())))
			for len(rest) > 0 {
				k := 1 + pieceRng.Intn(1+len(rest)/2+1)
				if k > len(rest) {
					k = len(rest)
				}
				if _, err := f.Write(rest[:k]); err != nil {
					t.Error(err)
					ok = false
					break
				}
				rest = rest[k:]
			}
			f.Close()

			r, err := ParOpen(c, fsys, "p.sion", ReadMode, nil)
			if err != nil {
				t.Error(err)
				ok = false
				return
			}
			got := make([]byte, len(payload))
			if len(got) > 0 {
				if _, err := io.ReadFull(r, got); err != nil {
					t.Errorf("iter %d rank %d: %v", iter, c.Rank(), err)
					ok = false
				}
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("iter %d rank %d: mismatch", iter, c.Rank())
				ok = false
			}
			if !r.EOF() {
				t.Errorf("iter %d rank %d: not EOF", iter, c.Rank())
				ok = false
			}
			r.Close()
		})
		if !ok {
			return
		}
		if err := Verify(fsys, "p.sion"); err != nil {
			t.Fatalf("iter %d: Verify: %v", iter, err)
		}
	}
}

// TestReaderPlanCostIsFlat: what a reader that parses nothing receives
// at open — its plan from rank 0 and its metadata message from the parser
// of its file — is O(owned), not O(N). The exchange used to broadcast the
// N-entry mapping and owner tables to every reader; here reader 1's words
// are counted at N = 64 and N = 1024, for ParOpen (M = N, one owned rank)
// and for ParOpenMapped at M = N/4 (four owned ranks each).
func TestReaderPlanCostIsFlat(t *testing.T) {
	words := func(n, m int, kind int64) (plan, meta int) {
		h := &header{
			FSBlockSize: 4096, NTasksGlobal: int32(n), NTasksLocal: int32(n), NFiles: 1,
			GlobalRanks: make([]int64, n), ChunkSizes: make([]int64, n), Mapping: make([]FileLoc, n),
		}
		m2 := &meta2{BlockBytes: make([][]int64, n)}
		for i := range h.ChunkSizes {
			h.GlobalRanks[i], h.ChunkSizes[i] = int64(i), 4096
			h.Mapping[i] = FileLoc{File: 0, LocalRank: int32(i)}
			m2.BlockBytes[i] = []int64{4096, 100}
		}
		claims := make([][]int64, m)
		for r := range claims {
			claims[r] = []int64{kind}
			if kind == claimOwnRank {
				claims[r] = append(claims[r], int64(r))
			}
		}
		plans := planReaders(h, 0, claims, 0)
		if plans[0][0] != 0 {
			t.Fatalf("n=%d m=%d: plan status %d", n, m, plans[0][0])
		}
		// Reader 1's local ranks are its owned ranks (one file, identity
		// placement); the parser of file 0 is reader 0.
		p1 := plans[1]
		own := p1[planHdr : planHdr+p1[6]]
		if p1[7] != 1 || p1[planHdr+p1[6]] != 0 || int64(len(p1)) != planHdr+p1[6]+p1[7] {
			t.Fatalf("n=%d m=%d: reader 1 plan %v", n, m, p1)
		}
		pf := &physFile{h: h, geo: newGeometry(h), m2: m2}
		return len(p1), len(encodeMappedMeta(pf, nil, 0, own))
	}
	for _, tc := range []struct {
		name string
		div  int
		kind int64
	}{{"ParOpen", 1, claimOwnRank}, {"ParOpenMapped M=N/4", 4, claimBalanced}} {
		p64, m64 := words(64, 64/tc.div, tc.kind)
		p1k, m1k := words(1024, 1024/tc.div, tc.kind)
		if p64 != p1k || m64 != m1k {
			t.Errorf("%s: reader 1 receives %d + %d words at N=64 but %d + %d at N=1024", tc.name, p64, m64, p1k, m1k)
		}
	}
}
