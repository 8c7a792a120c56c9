package sion

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
)

// compressible returns rank r's highly repetitive payload (zlib must
// actually shrink it for the multi-chunk assertions below to bite).
func compressible(r, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte("sion-compress-"[i%14]) + byte(r)
	}
	return out
}

// TestCompressedRoundTripAcrossModes writes each rank's payload through
// NewZWriter and reads it back through NewZReader with every combination
// of write and read data path — direct, buffered staging, and collective
// — pinning that the compressed stream survives any path pairing (the
// stream is stored through the ordinary chunk logic, so the data path
// must be invisible to zlib).
func TestCompressedRoundTripAcrossModes(t *testing.T) {
	const (
		n       = 6
		chunk   = 512
		fsblk   = 256
		payload = 4000 // several chunks once compressed framing is added
		collGrp = 3
	)
	type mode struct {
		label string
		opts  Options
	}
	modes := []mode{
		{"direct", Options{ChunkSize: chunk, FSBlockSize: fsblk}},
		{"buffered", Options{ChunkSize: chunk, FSBlockSize: fsblk, BufferSize: BufferAuto}},
		{"collective", Options{ChunkSize: chunk, FSBlockSize: fsblk, CollectorGroup: collGrp}},
	}
	for _, wm := range modes {
		for _, rm := range modes {
			wm, rm := wm, rm
			t.Run(fmt.Sprintf("write-%s/read-%s", wm.label, rm.label), func(t *testing.T) {
				fsys := fsio.NewOS(t.TempDir())
				mpi.Run(n, func(c *mpi.Comm) {
					want := compressible(c.Rank(), payload+137*c.Rank())
					wopts := wm.opts
					f, err := ParOpen(c, fsys, "z.sion", WriteMode, &wopts)
					if err != nil {
						t.Error(err)
						return
					}
					zw, err := NewZWriter(f)
					if err != nil {
						t.Error(err)
						return
					}
					// Small writes so the staging/collective paths see many
					// sub-chunk pieces.
					for off := 0; off < len(want); off += 123 {
						end := off + 123
						if end > len(want) {
							end = len(want)
						}
						if _, err := zw.Write(want[off:end]); err != nil {
							t.Error(err)
							return
						}
					}
					if err := zw.Close(); err != nil {
						t.Error(err)
						return
					}
					if err := f.Close(); err != nil {
						t.Error(err)
						return
					}

					ropts := rm.opts
					r, err := ParOpen(c, fsys, "z.sion", ReadMode, &ropts)
					if err != nil {
						t.Error(err)
						return
					}
					defer r.Close()
					zr, err := NewZReader(r)
					if err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
					got, err := io.ReadAll(zr)
					if err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
					zr.Close()
					if !bytes.Equal(got, want) {
						t.Errorf("rank %d: compressed round-trip differs (%d vs %d bytes)", c.Rank(), len(got), len(want))
					}
				})
				if err := Verify(fsys, "z.sion"); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCompressedSerialReadBack pins that a compressed stream written in
// parallel is readable through the serial global view and OpenRank (the
// post-processing path of the paper's §5.2 Scalasca use case).
func TestCompressedSerialReadBack(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	const n = 4
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "zs.sion", WriteMode, &Options{
			ChunkSize: 300, FSBlockSize: 128, BufferSize: BufferAuto,
		})
		if err != nil {
			t.Error(err)
			return
		}
		zw, _ := NewZWriter(f)
		zw.Write(compressible(c.Rank(), 2000))
		zw.Close()
		f.Close()
	})
	for r := 0; r < n; r++ {
		h, err := OpenRank(fsys, "zs.sion", r)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := NewZReader(h)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		zr.Close()
		h.Close()
		if !bytes.Equal(got, compressible(r, 2000)) {
			t.Fatalf("rank %d: serial read of compressed stream differs", r)
		}
	}
	if _, err := NewZReader(bytes.NewReader([]byte("not a zlib stream"))); err == nil {
		t.Fatal("NewZReader accepted a stream without a zlib header")
	}
}
