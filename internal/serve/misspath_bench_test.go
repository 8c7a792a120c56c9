package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsio"
	"repro/internal/serve"
)

// BenchmarkMissPath serves uniform windows from GOMAXPROCS goroutines (set
// it with -cpu) on fsio.OS and preads the same requests from the same file
// (…/pread), the miss path's ceiling. Two request mixes:
//
//   - 4–64 KiB windows over a file eight times the cache, through one
//     server (…/serve), and the same windows each inside the chunk of a
//     rank of zipf(1.1) popularity (…/skew/serve): skewed traffic a full
//     cache must tell apart from uniform traffic, so its evictions per
//     lookup and hit ratio are the admission rule's;
//   - 256 KiB–1 MiB windows over a file four times the cache, the ladder's
//     ckpt-large shape (…/large/…), through one server and through a
//     3-node cluster splitting that cache (…/large/cluster). Their misses
//     bracket resident blocks, which a span reads into the window with
//     them;
//   - 64 B–4 KiB windows over a 32 MiB file the cache holds whole, the
//     ladder's ckpt-small shape (…/resident/…): every lookup hits, and
//     the windows are spread over more memory than the TLB maps in small
//     pages, so the case shows what the page size of the cache's frames
//     costs a hit;
//   - the 4–64 KiB mix with every window inside one chunk (a rank's
//     512 KiB, one FS block past a multiple of its size), through a
//     3-node cluster splitting an eighth of the file as the ladder splits
//     serve-cold's cache (…/cold/cluster), and pread of the same windows
//     (…/cold/pread): the cluster's cold cost below the ladder; and
//     the same windows through one server, a pread of each from the
//     multifile and one from a flat copy of the ranks' streams,
//     interleaved a window at a time (…/cold/ratio), the ladder's
//     serve-cold serve pass and its reference in process.
//
// Each serving case reports, counted over the timed requests, the block
// lookups per request (each one a hash, a shard lock and a map probe, so
// the cache block's size shows as a count), the backend reads per
// request, the cache's work per block lookup, the backend bytes moved per
// byte served, and the vectors per backend read (1 = every span one plain
// read into the caller's buffer; not reported where nothing is read); a
// cluster also reports its runs (node calls) per request.
func BenchmarkMissPath(b *testing.B) {
	vfs := &serve.VecFS{FileSystem: fsio.NewOS(b.TempDir())}
	const perRank = 512 << 10
	raw := serve.WriteOneFile(b, vfs, "m.sion", 16, perRank, 4096)
	size := int64(len(raw))
	// A request of the in-chunk mixes also names its rank and its offset
	// in the rank's stream.
	type request struct {
		off, n int64
		rank   int
		pos    int64
	}
	requests := func(size, lo, hi int64) []request {
		rng := rand.New(rand.NewSource(36))
		reqs := make([]request, 4096)
		for i := range reqs {
			n := int64(math.Exp(math.Log(float64(lo)) + rng.Float64()*math.Log(float64(hi)/float64(lo))))
			reqs[i] = request{off: rng.Int63n(size - n), n: n}
		}
		return reqs
	}
	run := func(b *testing.B, reqs []request, hi int64, read func(p []byte, off int64) error) {
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := make([]byte, hi)
				for i := w; i < b.N; i += workers {
					q := reqs[i%len(reqs)]
					if err := read(p[:q.n], q.off); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	// serveCase times reqs through read after a pass that fills the cache
	// and starts its counts, and reports what stats counted meanwhile.
	serveCase := func(b *testing.B, reqs []request, hi int64, read func(p []byte, off int64) error, stats func() (serve.Stats, int64)) {
		p := make([]byte, hi)
		for _, q := range reqs {
			if err := read(p[:q.n], q.off); err != nil {
				b.Fatal(err)
			}
		}
		before, runs0 := stats()
		reads, vecs := vfs.Reads.Load(), vfs.Vecs.Load()
		b.ResetTimer()
		run(b, reqs, hi, read)
		b.StopTimer()
		st, runs := stats()
		lookups := float64(st.Hits + st.Misses - before.Hits - before.Misses)
		b.ReportMetric(lookups/float64(b.N), "lookups/req")
		b.ReportMetric(float64(st.BackendReads-before.BackendReads)/float64(b.N), "reads/req")
		if runs > 0 {
			b.ReportMetric(float64(runs-runs0)/float64(b.N), "runs/req")
		}
		b.ReportMetric(float64(st.Evictions-before.Evictions)/lookups, "evictions/lookup")
		b.ReportMetric(float64(st.Hits-before.Hits)/lookups, "hit")
		b.ReportMetric(float64(st.BackendBytes-before.BackendBytes)/float64(st.ServedBytes-before.ServedBytes), "backend-bytes/served")
		if r := vfs.Reads.Load() - reads; r > 0 {
			b.ReportMetric(float64(vfs.Vecs.Load()-vecs)/float64(r), "vectors/read")
		}
	}
	preadCase := func(b *testing.B, name string, reqs []request, hi int64) {
		fh, err := vfs.FileSystem.Open(name)
		if err != nil {
			b.Fatal(err)
		}
		defer fh.Close()
		b.ResetTimer()
		run(b, reqs, hi, func(p []byte, off int64) error {
			_, err := fh.ReadAt(p, off)
			return err
		})
	}

	const smallHi = 64 << 10
	// inChunks draws the 4–64 KiB mix inside one rank's chunk and moves
	// each window into the chunk of a rank rank() draws, from the layout:
	// m.sion's chunks are its 512 KiB ranks.
	lay, err := serve.New(vfs, "m.sion", nil)
	if err != nil {
		b.Fatal(err)
	}
	inChunks := func(rank func() int) []request {
		reqs := requests(perRank, 4<<10, smallHi)
		for i := range reqs {
			r := rank()
			reqs[i].rank, reqs[i].pos = r, reqs[i].off
			reqs[i].off += lay.Layout().RankBlocks(r)[0].Off
		}
		return reqs
	}
	// flat is every rank's stream back to back, one WriteAt per rank, as
	// the ladder writes the reference its serve_vs_pread divides by.
	fl, err := vfs.FileSystem.Create("flat")
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		at := lay.Layout().RankBlocks(r)[0].Off
		if _, err := fl.WriteAt(raw[at:at+perRank], int64(r)*perRank); err != nil {
			b.Fatal(err)
		}
	}
	if err := fl.Close(); err != nil {
		b.Fatal(err)
	}
	ranks, zipf := rand.New(rand.NewSource(51)), rand.NewZipf(rand.New(rand.NewSource(55)), 1.1, 1, 15)
	cold := inChunks(func() int { return ranks.Intn(16) })
	skew := inChunks(func() int { return int(zipf.Uint64()) })
	lay.Close()

	smallServe := func(reqs []request) func(b *testing.B) {
		return func(b *testing.B) {
			s, err := serve.New(vfs, "m.sion", &serve.Config{CacheBytes: size / 8})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			serveCase(b, reqs, smallHi, func(p []byte, off int64) error { return s.ReadFileAt(0, p, off, nil) }, func() (serve.Stats, int64) { return s.Stats(), 0 })
		}
	}
	small := requests(size, 4<<10, smallHi)
	b.Run("serve", smallServe(small))
	b.Run("skew/serve", smallServe(skew))
	b.Run("pread", func(b *testing.B) { preadCase(b, "m.sion", small, smallHi) })

	const largeHi = 1 << 20
	large := requests(size, 256<<10, largeHi)
	b.Run("large/serve", func(b *testing.B) {
		s, err := serve.New(vfs, "m.sion", &serve.Config{CacheBytes: size / 4})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		serveCase(b, large, largeHi, func(p []byte, off int64) error { return s.ReadFileAt(0, p, off, nil) }, func() (serve.Stats, int64) { return s.Stats(), 0 })
	})
	b.Run("large/cluster", func(b *testing.B) {
		const nodes = 3
		cl := cluster.New(nil)
		defer cl.Close()
		for i := 0; i < nodes; i++ {
			if _, err := cl.Join(fmt.Sprint("n", i), vfs, "m.sion", &serve.Config{CacheBytes: size / 4 / nodes}); err != nil {
				b.Fatal(err)
			}
		}
		serveCase(b, large, largeHi, func(p []byte, off int64) error { return cl.ReadFileAt(0, p, off, nil) }, clusterStats(cl))
	})
	b.Run("large/pread", func(b *testing.B) { preadCase(b, "m.sion", large, largeHi) })

	b.Run("cold/cluster", func(b *testing.B) {
		const nodes = 3
		cl := cluster.New(nil)
		defer cl.Close()
		for i := 0; i < nodes; i++ {
			if _, err := cl.Join(fmt.Sprint("n", i), vfs, "m.sion", &serve.Config{CacheBytes: (size/8/nodes + 4095) / 4096 * 4096}); err != nil {
				b.Fatal(err)
			}
		}
		serveCase(b, cold, smallHi, func(p []byte, off int64) error { return cl.ReadFileAt(0, p, off, nil) }, clusterStats(cl))
	})
	b.Run("cold/pread", func(b *testing.B) { preadCase(b, "m.sion", cold, smallHi) })
	// cold/ratio puts each cold window through a server on the bare OS
	// backend (through Handles, as the ladder's clients read), a pread of
	// the multifile and a pread of the flat copy, on one worker, so the
	// three see the same host within microseconds. The order rotates per
	// request, so each read goes first a third of the time: the read that
	// runs first pulls the window's bytes into the CPU caches for the
	// others. vs_pread and vs_flat are the server's rate over each
	// pread's, and vs_flat is the ladder's serve_vs_pread in process.
	b.Run("cold/ratio", func(b *testing.B) {
		s, err := serve.New(vfs.FileSystem, "m.sion", &serve.Config{CacheBytes: size / 8})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		handles := make([]*serve.Handle, 16)
		for r := range handles {
			if handles[r], err = s.Open(r); err != nil {
				b.Fatal(err)
			}
		}
		var files [2]fsio.File
		for i, name := range []string{"m.sion", "flat"} {
			if files[i], err = vfs.FileSystem.Open(name); err != nil {
				b.Fatal(err)
			}
			defer files[i].Close()
		}
		p := make([]byte, smallHi)
		for _, q := range cold {
			if _, err := handles[q.rank].ReadLogicalAt(p[:q.n], q.pos); err != nil {
				b.Fatal(err)
			}
		}
		workers := runtime.GOMAXPROCS(0)
		var mu sync.Mutex
		var total [3]time.Duration // serve, multifile pread, flat pread
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := make([]byte, smallHi)
				var sum [3]time.Duration
				for i := w; i < b.N; i += workers {
					q := cold[i%len(cold)]
					for k := 0; k < 3; k++ {
						x := (i + k) % 3
						t0 := time.Now()
						var err error
						switch x {
						case 0:
							_, err = handles[q.rank].ReadLogicalAt(p[:q.n], q.pos)
						case 1:
							_, err = files[0].ReadAt(p[:q.n], q.off)
						case 2:
							_, err = files[1].ReadAt(p[:q.n], int64(q.rank)*perRank+q.pos)
						}
						sum[x] += time.Since(t0)
						if err != nil {
							b.Error(err)
							return
						}
					}
				}
				mu.Lock()
				for x := range total {
					total[x] += sum[x]
				}
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(total[1])/float64(total[0]), "vs_pread")
		b.ReportMetric(float64(total[2])/float64(total[0]), "vs_flat")
	})

	const residentHi = 4 << 10
	rsize := int64(len(serve.WriteOneFile(b, vfs, "r.sion", 16, 2<<20, 4096)))
	resident := requests(rsize, 64, residentHi)
	b.Run("resident/serve", func(b *testing.B) {
		s, err := serve.New(vfs, "r.sion", &serve.Config{CacheBytes: 2 * rsize})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		read := func(p []byte, off int64) error { return s.ReadFileAt(0, p, off, nil) }
		p := make([]byte, 1<<20)
		for off := int64(0); off < rsize; off += int64(len(p)) {
			if err := read(p[:min(int64(len(p)), rsize-off)], off); err != nil {
				b.Fatal(err)
			}
		}
		serveCase(b, resident, residentHi, read, func() (serve.Stats, int64) { return s.Stats(), 0 })
	})
	b.Run("resident/pread", func(b *testing.B) { preadCase(b, "r.sion", resident, residentHi) })
}

// clusterStats reads a cluster's summed serve counters and its runs.
func clusterStats(cl *cluster.Cluster) func() (serve.Stats, int64) {
	return func() (serve.Stats, int64) {
		st := cl.Stats()
		return st.Serve, st.Requests
	}
}
