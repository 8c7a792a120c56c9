package sion

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Microbenchmarks of the library itself on the real file system, plus
// ablations of the design choices DESIGN.md calls out (chunk headers,
// physical-file counts, compression).

func benchmarkParallelWrite(b *testing.B, ntasks, nfiles int, chunk int64, hdrs bool) {
	b.Helper()
	fsys := fsio.NewOS(b.TempDir())
	payload := rankPayload(1, int(chunk))
	b.SetBytes(int64(ntasks) * chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%d.sion", i)
		mpi.Run(ntasks, func(c *mpi.Comm) {
			f, err := ParOpen(c, fsys, name, WriteMode, &Options{
				ChunkSize: chunk, NFiles: nfiles, ChunkHeaders: hdrs, FSBlockSize: 4096,
			})
			if err != nil {
				b.Error(err)
				return
			}
			f.Write(payload)
			f.Close()
		})
	}
}

func BenchmarkParallelWrite8Tasks1File(b *testing.B) {
	benchmarkParallelWrite(b, 8, 1, 64<<10, false)
}

func BenchmarkParallelWrite8Tasks4Files(b *testing.B) {
	benchmarkParallelWrite(b, 8, 4, 64<<10, false)
}

// Ablation: per-chunk headers buy recoverability for a small write cost.
func BenchmarkParallelWriteChunkHeaders(b *testing.B) {
	benchmarkParallelWrite(b, 8, 1, 64<<10, true)
}

// readBackShape is one restart workload: every rank's stream is perTask
// bytes dumped and read back in records of recMin..recMax bytes
// (log-uniform, equal mass per octave) through chunks of the given size.
type readBackShape struct {
	name           string
	perTask, chunk int64
	recMin, recMax int
}

// The ladder's three small-record workloads (bench/spec.go: ckpt-small,
// serve-hot, serve-cold), at the ladder's 64 ranks.
var readBackShapes = []readBackShape{
	{"small", 512 << 10, 64 << 10, 64, 4 << 10},
	{"fixed64k", 1 << 20, 256 << 10, 64 << 10, 64 << 10},
	{"mixed", 1 << 20, 256 << 10, 1 << 10, 64 << 10},
}

const readBackRanks = 64

// records returns the end offset of every record of rank g's stream.
func (sh readBackShape) records(g int) []int64 {
	rng := rand.New(rand.NewSource(int64(g) + 1))
	lo, hi := math.Log(float64(sh.recMin)), math.Log(float64(sh.recMax)+1)
	var ends []int64
	for pos := int64(0); pos < sh.perTask; {
		n := int64(math.Exp(lo + rng.Float64()*(hi-lo)))
		pos = min(pos+min(max(n, int64(sh.recMin)), int64(sh.recMax)), sh.perTask)
		ends = append(ends, pos)
	}
	return ends
}

// benchReadBack dumps the shape once and times its read-back, one
// io.ReadFull per record: ParOpen on 64 ranks (the ladder's P3), or
// ParOpenMapped on `readers` ranks draining the writers they own (P4).
// direct > 0 overrides the handles' derived DirectReadBytes, which is how
// the crossover sweep holds a record size on one side of the rule. Beside
// ns/op it reports the backend reads per op and the bytes they fetched
// per byte delivered, counted by an fsio.Meter under the file system.
func benchReadBack(b *testing.B, sh readBackShape, readers int, direct int64) {
	reg := obs.NewRegistry()
	fsys := fsio.Instrument(fsio.NewOS(b.TempDir()), fsio.NewMeter(reg, "rb"))
	reads := reg.Counter("fsio_ops_total", "", obs.L("backend", "rb", "op", "read")...)
	readBytes := reg.Counter("fsio_bytes_total", "", obs.L("backend", "rb", "op", "read")...)
	payload := make([][]byte, readBackRanks)
	recs := make([][]int64, readBackRanks)
	dst := make([][]byte, readBackRanks)
	for g := range payload {
		payload[g] = rankPayload(g, int(sh.perTask))
		recs[g] = sh.records(g)
		dst[g] = make([]byte, sh.perTask)
	}
	mpi.Run(readBackRanks, func(c *mpi.Comm) {
		f, err := ParOpen(c, fsys, "rb.sion", WriteMode, &Options{ChunkSize: sh.chunk, BufferSize: BufferAuto})
		if err != nil {
			b.Error(err)
			return
		}
		f.Write(payload[c.Rank()])
		if err := f.Close(); err != nil {
			b.Error(err)
		}
	})
	drain := func(f *File, g int) {
		if direct > 0 {
			f.directRead = direct
		}
		pos := int64(0)
		for _, end := range recs[g] {
			if _, err := io.ReadFull(f, dst[g][pos:end]); err != nil {
				b.Errorf("rank %d at %d: %v", g, pos, err)
				return
			}
			pos = end
		}
	}
	opts := &Options{BufferSize: BufferAuto}
	b.SetBytes(readBackRanks * sh.perTask)
	calls0, bytes0 := reads.Value(), readBytes.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.Run(readers, func(c *mpi.Comm) {
			if readers == readBackRanks {
				f, err := ParOpen(c, fsys, "rb.sion", ReadMode, opts)
				if err != nil {
					b.Error(err)
					return
				}
				drain(f, c.Rank())
				f.Close()
				return
			}
			mf, err := ParOpenMapped(c, fsys, "rb.sion", ReadMode, nil, opts)
			if err != nil {
				b.Error(err)
				return
			}
			for _, g := range mf.OwnedRanks() {
				h, _ := mf.Rank(g)
				drain(h, g)
			}
			mf.Close()
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(reads.Value()-calls0)/float64(b.N), "reads/op")
	b.ReportMetric(float64(readBytes.Value()-bytes0)/float64(int64(b.N)*readBackRanks*sh.perTask), "backend-bytes/delivered")
	for g := range dst {
		if !bytes.Equal(dst[g], payload[g]) {
			b.Fatalf("rank %d: read-back differs from the dump", g)
		}
	}
}

// BenchmarkReadBack is restart read-back through the read-ahead stage,
// in the shapes the bench/ ladder gates (read_vs_pread is paropen,
// mapped_read_vs_pread is mapped), plus the sweep directReadBlocks is
// taken from: one record size at a time, with the rule forced to stage
// it (staged: the bar at one whole stage) or to read it where it is
// going (direct: the bar at the record size).
func BenchmarkReadBack(b *testing.B) {
	for _, sh := range readBackShapes {
		sh := sh
		b.Run(sh.name+"/paropen", func(b *testing.B) { benchReadBack(b, sh, readBackRanks, 0) })
		b.Run(sh.name+"/mapped", func(b *testing.B) { benchReadBack(b, sh, 4, 0) })
	}
	for _, kib := range []int{4, 8, 16, 32, 64} {
		sh := readBackShape{"", 1 << 20, 256 << 10, kib << 10, kib << 10}
		b.Run(fmt.Sprintf("crossover/rec=%dKiB/staged", kib), func(b *testing.B) { benchReadBack(b, sh, readBackRanks, sh.chunk) })
		b.Run(fmt.Sprintf("crossover/rec=%dKiB/direct", kib), func(b *testing.B) { benchReadBack(b, sh, readBackRanks, int64(sh.recMin)) })
	}
}

// BenchmarkParOpenRead is the collective read open alone (plus the local
// Close), on the simulated file system so that 1024 ranks cost no
// descriptors: ns/op and allocs/op divided by ranks should not grow with
// ranks. Rank 0's claim gather and plan scatter and the parser's record
// sends are linear in the ranks; what each reader receives is O(owned)
// (TestReaderPlanCostIsFlat).
func BenchmarkParOpenRead(b *testing.B) {
	for _, n := range []int{64, 1024} {
		n := n
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			fs := runSim(b, n, func(c *mpi.Comm, v fsio.FileSystem) {
				f, err := ParOpen(c, v, "open.sion", WriteMode, &Options{ChunkSize: 4096})
				if err != nil {
					panic(err)
				}
				f.WriteSynthetic(4096)
				f.Close()
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSimOn(b, fs, n, func(c *mpi.Comm, v fsio.FileSystem) {
					f, err := ParOpen(c, v, "open.sion", ReadMode, nil)
					if err != nil {
						panic(err)
					}
					f.Close()
				})
			}
		})
	}
}

func BenchmarkSerialRankRead(b *testing.B) {
	fsys := fsio.NewOS(b.TempDir())
	const chunk = 256 << 10
	mpi.Run(4, func(c *mpi.Comm) {
		f, _ := ParOpen(c, fsys, "sr.sion", WriteMode, &Options{ChunkSize: chunk, FSBlockSize: 4096})
		f.Write(rankPayload(c.Rank(), chunk))
		f.Close()
	})
	buf := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := OpenRank(fsys, "sr.sion", i%4)
		if err != nil {
			b.Fatal(err)
		}
		io.ReadFull(f, buf)
		f.Close()
	}
}

// Ablation: zlib-compressed logical streams vs raw.
func BenchmarkZlibWrite(b *testing.B) {
	fsys := fsio.NewOS(b.TempDir())
	payload := rankPayload(7, 256<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("z-%d.sion", i)
		mpi.Run(1, func(c *mpi.Comm) {
			f, _ := ParOpen(c, fsys, name, WriteMode, &Options{ChunkSize: 512 << 10, FSBlockSize: 4096})
			zw, _ := NewZWriter(f)
			zw.Write(payload)
			zw.Close()
			f.Close()
		})
	}
}

func BenchmarkHeaderEncodeParse(b *testing.B) {
	fsys := fsio.NewOS(b.TempDir())
	h := &header{
		FSBlockSize: 4096, NTasksGlobal: 1024, NTasksLocal: 1024, NFiles: 1,
		GlobalRanks: make([]int64, 1024), ChunkSizes: make([]int64, 1024),
		Mapping: make([]FileLoc, 1024),
	}
	for i := range h.ChunkSizes {
		h.ChunkSizes[i] = 4096
		h.GlobalRanks[i] = int64(i)
		h.Mapping[i] = FileLoc{0, int32(i)}
	}
	fh, _ := fsys.Create("h.bin")
	defer fh.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fh.WriteAt(h.encode(), 0)
		if _, err := parseHeader(fh); err != nil {
			b.Fatal(err)
		}
	}
}
