package expt

import (
	"bytes"
	"fmt"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// TestTable4Findings asserts the buffered-staging claims the experiment
// was built to prove: on the small-record direct-path workload the
// auto-buffered run issues at least 10× fewer simfs write requests than
// the unbuffered run, its simulated wall time is no worse, and the reads
// collapse the same way.
func TestTable4Findings(t *testing.T) {
	r := result(t, "tab4", testScale)
	if len(r.Rows) != 3 {
		t.Fatalf("tab4 has %d rows, want 3", len(r.Rows))
	}
	const (
		colWrReqs = 2
		colWriteT = 3
		colRdReqs = 4
		colReadT  = 5
	)
	directWr := cell(t, r, 0, colWrReqs)
	autoWr := cell(t, r, 2, colWrReqs)
	if autoWr*10 > directWr {
		t.Errorf("buffered-auto write requests %.0f not ≥10× below direct %.0f", autoWr, directWr)
	}
	directRd := cell(t, r, 0, colRdReqs)
	autoRd := cell(t, r, 2, colRdReqs)
	if autoRd*10 > directRd {
		t.Errorf("buffered-auto read requests %.0f not ≥10× below direct %.0f", autoRd, directRd)
	}
	// The single-block buffer sits between the extremes.
	oneBlkWr := cell(t, r, 1, colWrReqs)
	if !(autoWr <= oneBlkWr && oneBlkWr < directWr) {
		t.Errorf("write requests not ordered: auto %.0f ≤ 1blk %.0f < direct %.0f", autoWr, oneBlkWr, directWr)
	}
	// Simulated wall time: buffered must not lose to unbuffered.
	directT := cell(t, r, 0, colWriteT)
	autoT := cell(t, r, 2, colWriteT)
	if autoT > directT {
		t.Errorf("buffered-auto write time %.3f worse than direct %.3f", autoT, directT)
	}
	if dr, ar := cell(t, r, 0, colReadT), cell(t, r, 2, colReadT); ar > dr {
		t.Errorf("buffered-auto read time %.3f worse than direct %.3f", ar, dr)
	}
}

// TestTable4ByteIdentity writes real payloads through the direct path on
// the simulated file system with every BufferSize class (unbuffered,
// tiny, one block, auto, huge) and asserts the physical multifile
// segments are byte-identical to the unbuffered ones.
func TestTable4ByteIdentity(t *testing.T) {
	const ntasks = 8
	const chunk = int64(96 << 10) // 1.5 FS blocks: exercises aligned flush tails
	fs := simfs.New(tab4Profile())

	write := func(file string, bufSize int64) {
		simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
			f, err := sion.ParOpen(c, v, file, sion.WriteMode, &sion.Options{
				ChunkSize: chunk, NFiles: 2, BufferSize: bufSize,
			})
			if err != nil {
				panic(err)
			}
			payload := taskBytes(c.Rank(), int(2*chunk)+37*c.Rank())
			for off := 0; off < len(payload); {
				end := off + 200 + 77*(off%3)
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := f.Write(payload[off:end]); err != nil {
					panic(err)
				}
				off = end
			}
			if err := f.Close(); err != nil {
				panic(err)
			}
		})
	}

	write("plain.sion", 0)
	for _, bs := range []int64{129, tab4Profile().FSBlockSize, sion.BufferAuto, 8 << 20} {
		file := fmt.Sprintf("buf%d.sion", bs)
		write(file, bs)
		for k := 0; k < 2; k++ {
			mustSameBytes(t, fs, segName("plain.sion", k), segName(file, k), bs)
		}
	}
}

// taskBytes generates a deterministic per-task payload.
func taskBytes(task, size int) []byte {
	out := make([]byte, size)
	x := uint32(task*2654435761 + 97)
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// segName mirrors the multifile physical naming (base, base.000001, …).
func segName(base string, k int) string {
	if k == 0 {
		return base
	}
	return fmt.Sprintf("%s.%06d", base, k)
}

// mustSameBytes compares two simulated files byte-for-byte through
// offline (nil-proc) views.
func mustSameBytes(t *testing.T, fs *simfs.FS, a, b string, bufSize int64) {
	t.Helper()
	v := fs.View(0, nil)
	fa, err := v.Open(a)
	if err != nil {
		t.Fatalf("buffer %d: %v", bufSize, err)
	}
	defer fa.Close()
	fb, err := v.Open(b)
	if err != nil {
		t.Fatalf("buffer %d: %v", bufSize, err)
	}
	defer fb.Close()
	sa, _ := fa.Size()
	sb, _ := fb.Size()
	if sa != sb {
		t.Fatalf("buffer %d: %s and %s sizes differ: %d vs %d", bufSize, a, b, sa, sb)
	}
	ba := make([]byte, sa)
	bb := make([]byte, sb)
	fa.ReadAt(ba, 0)
	fb.ReadAt(bb, 0)
	if !bytes.Equal(ba, bb) {
		t.Errorf("buffer %d: %s is not byte-identical to %s", bufSize, b, a)
	}
}
