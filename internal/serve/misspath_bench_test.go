package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsio"
	"repro/internal/serve"
)

// BenchmarkMissPath serves uniform windows from GOMAXPROCS goroutines (set
// it with -cpu) on fsio.OS and preads the same requests from the same file
// (…/pread), the miss path's ceiling. Two request mixes:
//
//   - 4–64 KiB windows over a file eight times the cache, through one
//     server (…/serve);
//   - 256 KiB–1 MiB windows over a file four times the cache, the ladder's
//     ckpt-large shape (…/large/…), through one server and through a
//     3-node cluster splitting that cache (…/large/cluster). Their misses
//     bracket resident blocks, which a span reads into the window with
//     them;
//   - 64 B–4 KiB windows over a 32 MiB file the cache holds whole, the
//     ladder's ckpt-small shape (…/resident/…): every lookup hits, and
//     the windows are spread over more memory than the TLB maps in small
//     pages, so the case shows what the page size of the cache's frames
//     costs a hit.
//
// Each serving case reports, counted over the timed requests, the block
// lookups per request (each one a hash, a shard lock and a map probe, so
// the cache block's size shows as a count), the cache's work per block
// lookup, the backend bytes moved per byte served, and the vectors per
// backend read (1 = every span one plain read into the caller's buffer;
// not reported where nothing is read).
func BenchmarkMissPath(b *testing.B) {
	vfs := &serve.VecFS{FileSystem: fsio.NewOS(b.TempDir())}
	size := int64(len(serve.WriteOneFile(b, vfs, "m.sion", 16, 512<<10, 4096)))
	type request struct{ off, n int64 }
	requests := func(size, lo, hi int64) []request {
		rng := rand.New(rand.NewSource(36))
		reqs := make([]request, 4096)
		for i := range reqs {
			n := int64(math.Exp(math.Log(float64(lo)) + rng.Float64()*math.Log(float64(hi)/float64(lo))))
			reqs[i] = request{rng.Int63n(size - n), n}
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
	serveCase := func(b *testing.B, reqs []request, hi int64, read func(p []byte, off int64) error, stats func() serve.Stats) {
		p := make([]byte, hi)
		for _, q := range reqs {
			if err := read(p[:q.n], q.off); err != nil {
				b.Fatal(err)
			}
		}
		before, reads, vecs := stats(), vfs.Reads.Load(), vfs.Vecs.Load()
		b.ResetTimer()
		run(b, reqs, hi, read)
		b.StopTimer()
		st := stats()
		lookups := float64(st.Hits + st.Misses - before.Hits - before.Misses)
		b.ReportMetric(lookups/float64(b.N), "lookups/req")
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
	small := requests(size, 4<<10, smallHi)
	b.Run("serve", func(b *testing.B) {
		s, err := serve.New(vfs, "m.sion", &serve.Config{CacheBytes: size / 8})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		serveCase(b, small, smallHi, func(p []byte, off int64) error { return s.ReadFileAt(0, p, off, nil) }, s.Stats)
	})
	b.Run("pread", func(b *testing.B) { preadCase(b, "m.sion", small, smallHi) })

	const largeHi = 1 << 20
	large := requests(size, 256<<10, largeHi)
	b.Run("large/serve", func(b *testing.B) {
		s, err := serve.New(vfs, "m.sion", &serve.Config{CacheBytes: size / 4})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		serveCase(b, large, largeHi, func(p []byte, off int64) error { return s.ReadFileAt(0, p, off, nil) }, s.Stats)
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
		serveCase(b, large, largeHi, func(p []byte, off int64) error { return cl.ReadFileAt(0, p, off, nil) },
			func() serve.Stats { return cl.Stats().Serve })
	})
	b.Run("large/pread", func(b *testing.B) { preadCase(b, "m.sion", large, largeHi) })

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
		serveCase(b, resident, residentHi, read, s.Stats)
	})
	b.Run("resident/pread", func(b *testing.B) { preadCase(b, "r.sion", resident, residentHi) })
}
