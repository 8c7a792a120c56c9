package sion

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/mpi"
)

// roundRobinMap spreads consecutive tasks over distinct files: the
// tests' second MapFunc beside the default ContiguousMap.
func roundRobinMap(globalRank, ntasks, nfiles int) int {
	return globalRank % nfiles
}

// TestMapFuncEdgeCases pins the task→file mapping functions on the shapes
// that historically break integer-division layouts: task counts not
// divisible by the file count, a single task, and nfiles == ntasks.
func TestMapFuncEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		ntasks, nfiles int
	}{
		{"single-task", 1, 1},
		{"indivisible", 10, 3},
		{"indivisible-large", 1000, 7},
		{"nfiles-equals-ntasks", 8, 8},
		{"two-to-one", 8, 4},
		{"prime-tasks", 13, 4},
	}
	maps := []struct {
		name string
		fn   MapFunc
	}{{"contig", ContiguousMap}, {"rr", roundRobinMap}}
	for _, m := range maps {
		for _, tc := range cases {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				counts := make([]int, tc.nfiles)
				prev := 0
				for g := 0; g < tc.ntasks; g++ {
					fn := m.fn(g, tc.ntasks, tc.nfiles)
					if fn < 0 || fn >= tc.nfiles {
						t.Fatalf("task %d mapped to file %d of %d", g, fn, tc.nfiles)
					}
					counts[fn]++
					if m.name == "contig" && fn < prev {
						t.Fatalf("ContiguousMap not monotonic: task %d file %d after file %d", g, fn, prev)
					}
					prev = fn
				}
				// Balance: with ntasks ≥ nfiles every file holds ⌊N/F⌋ or
				// ⌈N/F⌉ tasks — a file with zero tasks would make Create and
				// ParOpen produce an unreadable segment.
				lo, hi := tc.ntasks/tc.nfiles, (tc.ntasks+tc.nfiles-1)/tc.nfiles
				for k, c := range counts {
					if c < lo || c > hi {
						t.Errorf("file %d holds %d tasks, want %d..%d", k, c, lo, hi)
					}
				}
			})
		}
	}
	// nfiles == ntasks must be a bijection for both mappings.
	for _, m := range maps {
		seen := make(map[int]bool)
		for g := 0; g < 8; g++ {
			fn := m.fn(g, 8, 8)
			if seen[fn] {
				t.Errorf("%s: nfiles==ntasks maps two tasks to file %d", m.name, fn)
			}
			seen[fn] = true
		}
	}
}

// TestWithDefaultsClamping pins the Options normalization: nfiles is
// clamped to the task count, the default mapping and file count are
// installed, and invalid combinations are rejected.
func TestWithDefaultsClamping(t *testing.T) {
	cases := []struct {
		name       string
		opts       *Options
		ntasks     int
		wantNFiles int
		wantErr    bool
	}{
		{"nil-options", nil, 4, 1, false},
		{"default-nfiles", &Options{ChunkSize: 64}, 4, 1, false},
		{"nfiles-exceeds-ntasks", &Options{NFiles: 9}, 4, 4, false},
		{"nfiles-exceeds-single-task", &Options{NFiles: 5}, 1, 1, false},
		{"nfiles-kept", &Options{NFiles: 3}, 7, 3, false},
		{"collector-below-auto", &Options{CollectorGroup: -2}, 4, 0, true},
		{"collector-with-chunk-headers", &Options{CollectorGroup: 2, ChunkHeaders: true}, 4, 0, true},
		{"async-without-collector", &Options{AsyncCollective: true}, 4, 0, true},
		{"buffer-off-accepted", &Options{BufferSize: BufferOff}, 4, 1, false},
		{"buffer-below-off", &Options{BufferSize: -3}, 4, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.opts.withDefaults(tc.ntasks, fsio.Capabilities{})
			if tc.wantErr {
				if err == nil {
					t.Fatal("invalid options accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if out.NFiles != tc.wantNFiles {
				t.Errorf("NFiles = %d, want %d", out.NFiles, tc.wantNFiles)
			}
			if out.Mapping == nil {
				t.Error("default mapping not installed")
			}
		})
	}
}

// TestWithDefaultsCapabilityTuning pins the backend-aware geometry
// auto-tuning: a multipart descriptor turns staging on by default and
// spreads the physical files to the backend's write fanout, and the
// collective flush unit comes out whole parts — while the zero
// (POSIX-ish) descriptor reproduces the historical defaults exactly.
func TestWithDefaultsCapabilityTuning(t *testing.T) {
	objCaps := fsio.Capabilities{
		PartSizeFloor: 1 << 20,
		WriteFanout:   8,
	}

	// Zero descriptor: nothing changes.
	o, err := (&Options{ChunkSize: 64}).withDefaults(32, fsio.Capabilities{})
	if err != nil {
		t.Fatal(err)
	}
	if o.NFiles != 1 || o.BufferSize != 0 {
		t.Fatalf("posix defaults moved: NFiles=%d BufferSize=%d", o.NFiles, o.BufferSize)
	}

	// Multipart descriptor: fanout + staging defaults.
	o, err = (&Options{ChunkSize: 64}).withDefaults(32, objCaps)
	if err != nil {
		t.Fatal(err)
	}
	if o.NFiles != 8 {
		t.Errorf("NFiles = %d, want WriteFanout 8", o.NFiles)
	}
	if o.BufferSize != BufferAuto {
		t.Errorf("BufferSize = %d, want BufferAuto", o.BufferSize)
	}

	// Fanout clamps to the task count and never overrides the caller.
	o, _ = (&Options{ChunkSize: 64}).withDefaults(3, objCaps)
	if o.NFiles != 3 {
		t.Errorf("NFiles = %d, want clamp to 3 tasks", o.NFiles)
	}
	o, _ = (&Options{ChunkSize: 64, NFiles: 2}).withDefaults(32, objCaps)
	if o.NFiles != 2 {
		t.Errorf("NFiles = %d, want caller's 2", o.NFiles)
	}

	// BufferOff is the explicit opt-out; an explicit size is kept.
	o, _ = (&Options{ChunkSize: 64, BufferSize: BufferOff}).withDefaults(32, objCaps)
	if o.BufferSize != 0 {
		t.Errorf("BufferOff resolved to %d, want 0", o.BufferSize)
	}
	o, _ = (&Options{ChunkSize: 64, BufferSize: 4096}).withDefaults(32, objCaps)
	if o.BufferSize != 4096 {
		t.Errorf("explicit BufferSize resolved to %d, want 4096", o.BufferSize)
	}

	// The collective flush unit is whole parts: the backend reports its
	// part size as the FS block, and chunk capacities are whole blocks.
	part := objCaps.PartSizeFloor
	for _, blocks := range []int64{1, 3, 8, 64} {
		q := asyncFlushUnit(blocks*part, part)
		if q <= 0 || q%part != 0 || q > alignUp(asyncFlushCap, part) {
			t.Errorf("flush unit of a %d-part chunk = %d, want whole parts ≤ asyncFlushCap", blocks, q)
		}
	}
}

// tunedOS is fsio.OS as a backend with geometry preferences reports it:
// a write fanout, a part size and that part size as its block size.
type tunedOS struct{ *fsio.OS }

func (tunedOS) Capabilities() fsio.Capabilities {
	return fsio.Capabilities{WriteFanout: 3, PartSizeFloor: 8192}
}
func (tunedOS) BlockSize(string) int64 { return 8192 }

// TestParOpenTunesFromRankZero pins that a parallel write open takes its
// geometry inputs from rank 0 alone: when only rank 0's stack reports a
// descriptor and block size, every rank still opens 3 files with 8 KiB
// blocks, and the multifile is byte-identical to one written by ranks
// that all report them. A rank tuning from its own stack would split
// the ranks over different file counts and fail or hang.
func TestParOpenTunesFromRankZero(t *testing.T) {
	const n = 6
	write := func(fsOf func(rank int) fsio.FileSystem) {
		runWithin(t, 20*time.Second, n, func(c *mpi.Comm) {
			f, err := ParOpen(c, fsOf(c.Rank()), "t.sion", WriteMode, &Options{ChunkSize: 4096})
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if f.NumFiles() != 3 || f.FSBlockSize() != 8192 {
				t.Errorf("rank %d: NumFiles %d, FSBlockSize %d; want 3 and 8192", c.Rank(), f.NumFiles(), f.FSBlockSize())
			}
			if _, err := f.Write(rankPayload(c.Rank(), 9000+500*c.Rank())); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			if err := f.Close(); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		})
	}
	mixed, all := t.TempDir(), t.TempDir()
	write(func(rank int) fsio.FileSystem {
		if rank == 0 {
			return tunedOS{fsio.NewOS(mixed)}
		}
		return fsio.NewOS(mixed)
	})
	write(func(int) fsio.FileSystem { return tunedOS{fsio.NewOS(all)} })
	if t.Failed() {
		return
	}
	for _, name := range PhysicalNames("t.sion", 3) {
		got, err := os.ReadFile(filepath.Join(mixed, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(all, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the run in which every rank reports the descriptor", name)
		}
	}
	if err := Verify(fsio.NewOS(mixed), "t.sion"); err != nil {
		t.Fatal(err)
	}
}
