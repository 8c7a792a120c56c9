package sion

import (
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"testing"

	"repro/internal/fsio"
)

// memFile is a read-only in-memory fsio.File over raw multifile bytes,
// used to feed fuzz inputs through the metadata parsers without disk I/O.
type memFile struct{ b []byte }

var _ fsio.File = (*memFile)(nil)

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("memfile: negative offset %d", off)
	}
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("memfile: read-only")
}
func (m *memFile) WriteZeroAt(n, off int64) error { return fmt.Errorf("memfile: read-only") }
func (m *memFile) ReadDiscardAt(n, off int64) (int64, error) {
	got, short := n, false
	if off >= int64(len(m.b)) {
		return 0, nil
	}
	if off+n > int64(len(m.b)) {
		got, short = int64(len(m.b))-off, true
	}
	_ = short
	return got, nil
}
func (m *memFile) Size() (int64, error) { return int64(len(m.b)), nil }
func (m *memFile) Truncate(int64) error { return fmt.Errorf("memfile: read-only") }
func (m *memFile) Sync() error          { return nil }
func (m *memFile) Close() error         { return nil }

// memFS exposes a set of raw byte images as a read-only fsio.FileSystem.
type memFS struct{ files map[string][]byte }

var _ fsio.FileSystem = (*memFS)(nil)

func (fs *memFS) Open(name string) (fsio.File, error) {
	b, ok := fs.files[path.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, fsio.ErrNotExist)
	}
	return &memFile{b: b}, nil
}
func (fs *memFS) OpenRW(name string) (fsio.File, error) { return fs.Open(name) }
func (fs *memFS) Create(name string) (fsio.File, error) {
	return nil, fmt.Errorf("memfs: read-only")
}
func (fs *memFS) Stat(name string) (fsio.FileInfo, error) {
	b, ok := fs.files[path.Clean(name)]
	if !ok {
		return fsio.FileInfo{}, fmt.Errorf("memfs: stat %s: %w", name, fsio.ErrNotExist)
	}
	return fsio.FileInfo{Name: name, Size: int64(len(b))}, nil
}
func (fs *memFS) Remove(name string) error { return fmt.Errorf("memfs: read-only") }
func (fs *memFS) BlockSize(string) int64   { return 256 }

// seedMultifile builds a small real multifile (serial path, 3 tasks, one
// physical file) and returns its raw bytes as fuzz seed material.
func seedMultifile(tb testing.TB, chunkHeaders bool) []byte {
	tb.Helper()
	dir := tb.TempDir()
	fsys := fsio.NewOS(dir)
	sf, err := Create(fsys, "seed.sion", []int64{100, 64, 200}, &Options{
		FSBlockSize: 128, ChunkHeaders: chunkHeaders,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := sf.Seek(r, 0, 0); err != nil {
			tb.Fatal(err)
		}
		if _, err := sf.Write(rankPayload(r, 150+40*r)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sf.Close(); err != nil {
		tb.Fatal(err)
	}
	fh, err := fsys.Open("seed.sion")
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	size, _ := fh.Size()
	buf := make([]byte, size)
	if _, err := fh.ReadAt(buf, 0); err != nil && err != io.EOF {
		tb.Fatal(err)
	}
	return buf
}

// meta2At is where the trailer of a segment image places metablock 2.
func meta2At(img []byte) uint64 { return le().Uint64(img[len(img)-tailSize+8:]) }

// withMeta2 returns a copy of head, the bytes of a segment before its
// metablock 2, followed by enc as metablock 2 and a trailer whose checksum
// matches, so that readTail reaches parseMeta2's checks.
func withMeta2(head, enc []byte) []byte {
	out := append(append([]byte(nil), head...), enc...)
	tail := make([]byte, tailSize)
	copy(tail, magicTail)
	le().PutUint64(tail[8:], uint64(len(head)))
	le().PutUint32(tail[16:], crc32.ChecksumIEEE(enc))
	return append(out, tail...)
}

// remeta returns a copy of the segment image img with metablocks 1 and 2
// decoded, passed through edit and encoded again (metablock 1 must keep
// its size), so that the image still parses and only edit's change is
// wrong.
func remeta(tb testing.TB, img []byte, edit func(h *header, m *meta2)) []byte {
	tb.Helper()
	mf := &memFile{b: img}
	h, err := parseHeader(mf)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := readTail(mf, int(h.NTasksLocal))
	if err != nil {
		tb.Fatal(err)
	}
	size := h.encodedSize()
	edit(h, m)
	if h.encodedSize() != size {
		tb.Fatalf("edit resized metablock 1 from %d to %d bytes", size, h.encodedSize())
	}
	out := withMeta2(img[:meta2At(img)], m.encode())
	copy(out, h.encode())
	return out
}

// FuzzReadHeader feeds arbitrary bytes through the metablock-1 parser,
// the derived chunk geometry, and the trailer/metablock-2 locator (also
// on bytes whose header does not parse). Any outcome but a clean error
// (or success on intact input) is a bug.
func FuzzReadHeader(f *testing.F) {
	seed := seedMultifile(f, false)
	f.Add(seed)
	f.Add(seed[:headerFixedSize])
	f.Add(seed[:len(seed)-tailSize/2])
	flip := func(off int, v byte) []byte {
		b := append([]byte(nil), seed...)
		b[off] ^= v
		return b
	}
	f.Add(flip(20, 0xff))                    // NTasksGlobal
	f.Add(flip(8, 0x02))                     // format version
	f.Add(flip(32, 0x04))                    // FileNum beyond NFiles
	f.Add(flip(len(seed)-tailSize+14, 0x40)) // trailer points outside the file
	f.Add([]byte(magicHeader))
	f.Add([]byte{})
	// Metablock 2 damaged behind a matching checksum.
	head := seed[:meta2At(seed)]
	m2 := seed[len(head) : len(seed)-tailSize]
	edit := func(off int, v uint32) []byte {
		b := append([]byte(nil), m2...)
		le().PutUint32(b[off:], v)
		return withMeta2(head, b)
	}
	f.Add(edit(0, 0))                      // magic
	f.Add(edit(8, 4))                      // task count differs from the header's
	f.Add(edit(16, 1<<25))                 // implausible block count
	f.Add(withMeta2(head, m2[:16]))        // block counts cut off
	f.Add(withMeta2(head, m2[:len(m2)-8])) // block bytes cut off

	f.Fuzz(func(t *testing.T, data []byte) {
		mf := &memFile{b: data}
		h, err := parseHeader(mf)
		if err != nil {
			readTail(mf, 3)
			return
		}
		// An accepted header must be safe to derive geometry from and to
		// locate metadata with.
		g := newGeometry(h)
		if len(g.aligned) != int(h.NTasksLocal) {
			t.Fatalf("geometry tables sized %d for %d tasks", len(g.aligned), h.NTasksLocal)
		}
		if m2, err := readTail(mf, int(h.NTasksLocal)); err == nil {
			for _, bb := range m2.BlockBytes {
				_ = bb
			}
		}
	})
}

// FuzzDecodeMapping feeds arbitrary bytes through the decoders of the
// messages between ranks: the global placement table codec
// (decodeMapping, which the mapped-open planner and the write-side
// mapping forwarding both trust for every rank they place), the
// parser→reader rank-record decoder (decodeMappedMeta), and the
// collective write's data frames (decodeCollFrame). Truncated buffers,
// rank indices out of range, and reader/task counts far apart (M≫N) must
// yield errors — never a panic, and never a silently short or
// out-of-range table.
func FuzzDecodeMapping(f *testing.F) {
	valid := encodeMapping([]FileLoc{{0, 0}, {1, 0}, {0, 1}})
	f.Add(valid, 3, 2)
	f.Add(valid[:len(valid)-3], 3, 2)              // truncated mid-entry
	f.Add(valid, 2, 2)                             // too many entries for ntasks
	f.Add(valid, 4096, 2)                          // M≫N: far too few entries
	f.Add(encodeMapping([]FileLoc{{5, 0}}), 1, 2)  // file index out of range
	f.Add(encodeMapping([]FileLoc{{0, 9}}), 1, 2)  // local rank out of range
	f.Add(encodeMapping([]FileLoc{{-1, 0}}), 1, 2) // negative file index
	f.Add([]byte{}, 0, 1)
	f.Add([]byte{}, -3, -1)

	// Seeds for the rank-record decoder, fed from the same byte corpus.
	f.Add(encodeInt64s([]int64{0, 0, 1, 2, 0, 100, 256, 1024, 256, 0, 1, 40}), 4, 1)
	f.Add(encodeInt64s([]int64{0, 0, 1, 2, 0, 100, 256, 1024, 256, 3, 40}), 4, 1)       // truncated blocks
	f.Add(encodeInt64s([]int64{0, 0, 7}), 4, 1)                                         // records missing
	f.Add(encodeInt64s([]int64{0, 1, 0}), 4, 1)                                         // segment out of range
	f.Add(encodeInt64s([]int64{0, 0, 1, 2, 0, 100}), 4, 1)                              // record cut short
	f.Add(encodeInt64s([]int64{0, 0, 1, 2, 0, 100, 256, 1024, 256, 0, 1, 300}), 4, 1)   // block beyond its chunk
	f.Add(encodeInt64s([]int64{0, 0, 1, 2, 0, 100, 256, 1024, 256, 0, 1, 40, 7}), 4, 1) // trailing word

	// Seeds for the collective frame decoder.
	frame := (&collFrame{logicalOff: 512, member: 1, chunk0: 256, capacity: 512, stride: 1024, data: []byte("payload")}).encode()
	f.Add(frame, 0, 0)
	f.Add(frame[:collFrameHdr-1], 0, 0) // header cut short
	f.Add(frame[:len(frame)-1], 0, 0)   // fewer bytes than announced

	f.Fuzz(func(t *testing.T, data []byte, ntasks, nfiles int) {
		if fr, err := decodeCollFrame(data); err == nil && len(fr.data) != len(data)-collFrameHdr {
			t.Fatalf("accepted frame carries %d of %d payload bytes", len(fr.data), len(data)-collFrameHdr)
		}
		if m, err := decodeMapping(data, ntasks, nfiles); err == nil {
			if len(m) != ntasks {
				t.Fatalf("accepted mapping holds %d entries for %d tasks", len(m), ntasks)
			}
			for i, fl := range m {
				if fl.File < 0 || int(fl.File) >= nfiles || fl.LocalRank < 0 || int(fl.LocalRank) >= ntasks {
					t.Fatalf("accepted mapping entry %d = %+v outside %d files / %d tasks", i, fl, nfiles, ntasks)
				}
			}
		}
		if ntasks >= 0 && ntasks <= maxTasks {
			if recs, err := decodeMappedMeta(decodeInt64s(data), ntasks, nfiles); err == nil {
				for _, rec := range recs {
					if rec.global < 0 || rec.global >= ntasks || rec.chunkSize <= 0 || rec.aligned <= 0 {
						t.Fatalf("accepted implausible mapped metadata record %+v", rec)
					}
					for _, b := range rec.blockBytes {
						if b < 0 || b > rec.aligned {
							t.Fatalf("accepted block bytes %d beyond chunk %d", b, rec.aligned)
						}
					}
				}
			}
		}
	})
}

// FuzzOpen feeds corrupted multifiles through the full serial open path
// used by the sion command's verbs: Open, Locations, Dump, Verify, and
// OpenRank must all return errors instead of panicking.
func FuzzOpen(f *testing.F) {
	seed := seedMultifile(f, false)
	f.Add(seed)
	f.Add(seedMultifile(f, true)) // chunk-headered variant
	f.Add(seed[:len(seed)/2])     // crash before close
	truncTail := append([]byte(nil), seed...)
	f.Add(truncTail[:len(truncTail)-1])
	zeroed := append([]byte(nil), seed...)
	for i := headerFixedSize; i < headerFixedSize+32 && i < len(zeroed); i++ {
		zeroed[i] = 0
	}
	f.Add(zeroed)
	// Images that parse but that Verify rejects (TestVerifyRejects).
	f.Add(remeta(f, seed, func(h *header, m *meta2) { h.Mapping[1] = h.Mapping[0] }))
	f.Add(remeta(f, seed, func(h *header, m *meta2) { h.GlobalRanks[0], h.GlobalRanks[1] = 1, 0 }))
	f.Add(remeta(f, seed, func(h *header, m *meta2) { m.BlockBytes[0][0] = 1 << 20 }))
	f.Add(remeta(f, seedMultifile(f, true), func(h *header, m *meta2) { m.BlockBytes[0][0]-- }))

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := &memFS{files: map[string][]byte{"f.sion": data}}
		if err := Dump(fsys, "f.sion", io.Discard); err != nil {
			return // rejected cleanly
		}
		// The image parsed: the utilities must keep working on it.
		if err := Verify(fsys, "f.sion"); err != nil {
			return
		}
		r, err := OpenRank(fsys, "f.sion", 0)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for !r.EOF() {
			if _, err := r.Read(buf); err != nil {
				break
			}
		}
		r.Close()
	})
}
