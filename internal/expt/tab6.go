package expt

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	sion "repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simfs"
)

// Table 6 (extension): backend request reduction from the read-serving
// subsystem (internal/serve). The paper solves writing task-local data at
// scale; serving that data back to large, loosely coupled client
// populations is the read-side mirror image: without a serving layer,
// every logical read walks the multifile through its own handle (metadata
// parse at open, one backend request per record), with zero reuse across
// clients. internal/serve fronts the multifile with a sharded block cache
// and a miss path that coalesces misses into dense span reads — the
// CkIO-style decoupling of many logical readers from few aggregated file
// requests (arXiv:2411.18593), with the cache-and-broadcast amortization
// of collective-buffering models (arXiv:0901.0134).
//
// Workload: one multifile written by tab6Writers tasks, then read by
// tab6Clients sequential logical clients. Each client picks a rank from a
// zipfian popularity distribution (a hot-set read pattern: the restart of
// a popular checkpoint, a dashboard over fresh trace data), opens a
// session, and reads a few random windows of that rank — verified
// byte-for-byte against the written payload in every mode. The uncached
// baseline gives every client its own OpenRank handle; the served modes
// route all clients through one serve.Server with a large and a small
// cache budget. simfs.FileStats counts every backend request.
const (
	tab6Writers  = 256
	tab6Chunk    = int64(64) << 10 // one 64 KiB FS block per chunk
	tab6NFiles   = 2
	tab6Clients  = 2048
	tab6CacheBig = int64(64) << 20
	tab6CacheSml = int64(1) << 20 // 16 cache blocks: forces eviction churn
)

// tab6Rand is a deterministic LCG so the access pattern is identical
// across modes and Go versions (math/rand's zipf stream is not pinned).
type tab6Rand struct{ x uint64 }

func (r *tab6Rand) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 11
}

func (r *tab6Rand) float() float64 {
	return float64(r.next()%(1<<52)) / float64(uint64(1)<<52)
}

// tab6Zipf samples ranks with popularity ∝ 1/(k+1)^1.2 via the cumulative
// distribution.
type tab6Zipf struct{ cum []float64 }

func newTab6Zipf(n int) *tab6Zipf {
	z := &tab6Zipf{cum: make([]float64, n)}
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), 1.2)
		z.cum[k] = total
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	return z
}

func (z *tab6Zipf) sample(r *tab6Rand) int {
	u := r.float()
	return sort.SearchFloat64s(z.cum, u)
}

// The zipfian storms of tab6 and tab9 read the same windows per client.
const (
	zipfReads   = 4    // random windows per client
	zipfReadLen = 2048 // bytes per window
)

// zipfClient is client c of table tab's zipfian storm: a zipfian rank g,
// zipfReads random windows of it (every 16th client additionally streams
// the whole rank), every byte verified against taskPayload(g, size(g)).
func zipfClient(tab string, c int, rng *tab6Rand, zipf *tab6Zipf, size func(g int) int, open func(g int) sion.LogicalReaderAt) {
	g := zipf.sample(rng)
	want := taskPayload(g, size(g))
	h := open(g)
	for i := 0; i < zipfReads; i++ {
		off := int64(rng.next() % uint64(len(want)-zipfReadLen))
		buf := make([]byte, zipfReadLen)
		_, err := h.ReadLogicalAt(buf, off)
		check(err == nil, "%s: client %d rank %d window at %d: %v", tab, c, g, off, err)
		check(bytes.Equal(buf, want[off:off+zipfReadLen]), "%s: client %d rank %d window at %d: bytes differ", tab, c, g, off)
	}
	if c%16 == 0 {
		buf := make([]byte, len(want))
		_, err := h.ReadLogicalAt(buf, 0)
		check(err == nil, "%s: client %d rank %d full stream: %v", tab, c, g, err)
		check(bytes.Equal(buf, want), "%s: client %d rank %d: full stream differs", tab, c, g)
	}
}

// tab6Mode writes the multifile once per call and replays the identical
// zipfian client sequence, uncached (cacheBytes 0: per-client OpenRank
// handles) or through a serve.Server with the given cache budget. It
// returns the read-phase request counters and, for served modes, the
// server's own stats.
func tab6Mode(nwriters, nclients int, cacheBytes int64) (rst simfs.FileStats, sst serve.Stats) {
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab6"))
	wst := writeDump(fs, nwriters, "tab6.sion", &sion.Options{ChunkSize: tab6Chunk, NFiles: tab6NFiles},
		func(g int) int { return payloadSize(tab6Chunk, g) })

	// The clients run sequentially on unmetered views (the serving layer
	// is a concurrent subsystem, not a set of vtime processes; tab6 proves
	// the request-count claim, which is time-independent).
	rng := &tab6Rand{x: 0x5107a}
	zipf := newTab6Zipf(nwriters)
	size := func(g int) int { return payloadSize(tab6Chunk, g) }
	if cacheBytes == 0 {
		for c := 0; c < nclients; c++ {
			v := fs.View(nwriters+1+c, nil)
			var h *sion.File
			zipfClient("tab6", c, rng, zipf, size, func(g int) sion.LogicalReaderAt {
				var err error
				h, err = sion.OpenRank(v, "tab6.sion", g)
				check(err == nil, "tab6: client %d: OpenRank(%d): %v", c, g, err)
				return h
			})
			err := h.Close()
			check(err == nil, "tab6: client %d: Close: %v", c, err)
		}
	} else {
		srv, err := serve.New(fs.View(nwriters, nil), "tab6.sion", &serve.Config{CacheBytes: cacheBytes})
		check(err == nil, "tab6: serve.New: %v", err)
		for c := 0; c < nclients; c++ {
			zipfClient("tab6", c, rng, zipf, size, func(g int) sion.LogicalReaderAt {
				h, err := srv.Open(g)
				check(err == nil, "tab6: client %d: Open(%d): %v", c, g, err)
				return h
			})
		}
		sst = srv.Stats()
		err = srv.Close()
		check(err == nil, "tab6: serve.Close: %v", err)
	}
	st := dumpStats(fs, "tab6.sion", tab6NFiles)
	rst = simfs.FileStats{
		Opens:        st.Opens - wst.Opens,
		ReadRequests: st.ReadRequests - wst.ReadRequests,
		ReaderTasks:  st.ReaderTasks,
	}
	return rst, sst
}

// Table6 regenerates the read-serving table: the zipfian client workload
// against per-handle uncached reads and against the serving subsystem
// with a large and a deliberately tiny cache, with simfs request counters
// proving the order-of-magnitude backend reduction and byte identity
// asserted in-run for every mode.
func Table6(scale int) *Result {
	res := &Result{
		Name:   "tab6",
		Title:  "Table 6 (ext): read-serving subsystem (internal/serve), zipfian client workload, jugene, 64 KiB blocks",
		Header: []string{"read mode", "writers", "clients", "opens", "rd reqs", "hit%", "redux"},
	}
	nwriters := scaleDown(tab6Writers, scale, 32)
	nclients := scaleDown(tab6Clients, scale, 256)

	type mode struct {
		label string
		cache int64
	}
	var baseline float64
	for _, m := range []mode{
		{"uncached", 0},
		{fmt.Sprintf("served-%dMiB", tab6CacheBig>>20), tab6CacheBig},
		{fmt.Sprintf("served-%dMiB", tab6CacheSml>>20), tab6CacheSml},
	} {
		rst, sst := tab6Mode(nwriters, nclients, m.cache)
		hit, redux := "-", "1.0x"
		if m.cache == 0 {
			baseline = float64(rst.ReadRequests)
		} else {
			if lookups := sst.Hits + sst.Misses; lookups > 0 {
				hit = fmt.Sprintf("%.1f", 100*float64(sst.Hits)/float64(lookups))
			}
			redux = fmt.Sprintf("%.1fx", baseline/float64(rst.ReadRequests))
		}
		res.Rows = append(res.Rows, []string{
			m.label, kfmt(nwriters), kfmt(nclients),
			fmt.Sprintf("%d", rst.Opens),
			fmt.Sprintf("%d", rst.ReadRequests),
			hit, redux,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("zipf(1.2) rank popularity; %d windows of %d B per client, every 16th client streams its whole rank; byte identity asserted in-run",
			zipfReads, zipfReadLen),
		"uncached: every client pays its own OpenRank metadata walk plus one backend request per window",
		"served: one layout snapshot at serve.New; misses fill the sharded block cache via dense span reads, so backend requests approach the distinct-block count of the working set",
		"request counters are simfs.FileStats sums over both physical files; the client sequence is identical in every mode")
	return res
}
