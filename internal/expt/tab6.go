package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simfs"
	"repro/internal/workload"
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
// Workload: one multifile written by zipfWriters tasks, then read by
// tab6Clients sequential logical clients of workload.ZipfClients. Each
// client picks a rank from a zipfian popularity distribution (a hot-set
// read pattern: the restart of a popular checkpoint, a dashboard over
// fresh trace data) and reads a few random windows of that rank;
// workload.Replay checks every byte against the written payload. The
// uncached stack gives every client its own OpenRank handle; the served
// stacks route all clients through one serve.Server with a large and a
// small cache budget. simfs.FileStats counts every backend request. It
// asserts in-run that the large cache issues at least 10× and the small
// one at least 2× fewer backend reads than the uncached stack.
const (
	tab6Clients  = 2048
	tab6CacheBig = int64(64) << 20
	tab6CacheSml = int64(1) << 20 // 16 cache blocks: forces eviction churn
)

// The zipfian storms of tab6 and tab9 replay the same client shape, from
// one seed, over a dump of zipfWriters tasks in 64 KiB chunks on tab3's
// jugene.
const (
	zipfWriters = 256
	zipfChunk   = int64(64) << 10 // one 64 KiB FS block per chunk
	zipfNFiles  = 2
	zipfSeed    = uint64(0x5107a)
	zipfReadLen = 2048 // bytes per window
	zipfEvery   = 16   // every 16th client streams its whole rank
)

// zipfDump builds a fresh machine holding the multifile name of nwriters
// tasks, task g storing size(g) bytes, caches dropped; it returns the fs
// and the write phase's counters.
func zipfDump(name string, nwriters int, size func(g int) int) (*simfs.FS, simfs.FileStats) {
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab6"))
	return fs, writeDump(fs, nwriters, name, &sion.Options{ChunkSize: zipfChunk, NFiles: zipfNFiles}, size)
}

// stormRun is what one stack's replay of a storm cost.
type stormRun struct {
	reads  simfs.FileStats // read phase: opens and backend read requests
	costs  []int64         // each client's backend read requests
	counts workload.Counts // the stack's own counts
}

// zipfReplay replays stream through st over the dump name on fs (wst its
// write phase), with before(c), if not nil, ahead of each client c > 0.
func zipfReplay(fs *simfs.FS, name string, wst simfs.FileStats, st workload.Stack, stream []workload.Request, size func(g int) int, before func(c int)) stormRun {
	var run stormRun
	prev := dumpStats(fs, name, zipfNFiles).ReadRequests
	cost := func() {
		now := dumpStats(fs, name, zipfNFiles).ReadRequests
		run.costs = append(run.costs, now-prev)
		prev = now
	}
	counts, err := workload.Replay(st, stream, func(g int) []byte { return taskPayload(g, size(g)) }, func(i int) {
		if c := stream[i].Client; i > 0 && c != stream[i-1].Client {
			cost()
			if before != nil {
				before(c)
			}
		}
	})
	check(err == nil, "%s: %v", name, err)
	cost()
	st1 := dumpStats(fs, name, zipfNFiles)
	run.reads = simfs.FileStats{Opens: st1.Opens - wst.Opens, ReadRequests: st1.ReadRequests - wst.ReadRequests}
	run.counts = counts
	return run
}

// Table6 regenerates the read-serving table: the zipfian client workload
// through per-handle uncached reads and through the serving subsystem
// with a large and a deliberately tiny cache, with simfs request counters
// proving the order-of-magnitude backend reduction.
func Table6(scale int) *Result {
	res := &Result{
		Name:   "tab6",
		Title:  "Table 6 (ext): read-serving subsystem (internal/serve), zipfian client workload, jugene, 64 KiB blocks",
		Header: []string{"read mode", "writers", "clients", "opens", "rd reqs", "hit%", "redux"},
	}
	nwriters := scaleDown(zipfWriters, scale, 32)
	nclients := scaleDown(tab6Clients, scale, 256)
	size := func(g int) int { return payloadSize(zipfChunk, g) }
	stream := workload.ZipfClients(zipfSeed, nwriters, nclients, zipfReadLen, zipfEvery, size)
	row := func(label string, r stormRun, hit, redux string) {
		res.Rows = append(res.Rows, []string{label, kfmt(nwriters), kfmt(nclients),
			fmt.Sprintf("%d", r.reads.Opens), fmt.Sprintf("%d", r.reads.ReadRequests), hit, redux})
	}

	// The clients run sequentially on unmetered views (the serving layer
	// is a concurrent subsystem, not a set of vtime processes; tab6 proves
	// the request-count claim, which is time-independent).
	fs, wst := zipfDump("tab6.sion", nwriters, size)
	uncached := workload.Stack{Open: func(c, g int) (sion.LogicalReaderAt, error) {
		return sion.OpenRank(fs.View(nwriters+1+c, nil), "tab6.sion", g)
	}}
	base := zipfReplay(fs, "tab6.sion", wst, uncached, stream, size, nil)
	row("uncached", base, "-", "1.0x")
	for _, m := range []struct {
		cache int64
		bar   float64 // asserted minimum reduction
	}{{tab6CacheBig, 10}, {tab6CacheSml, 2}} {
		fs, wst := zipfDump("tab6.sion", nwriters, size)
		srv, err := serve.New(fs.View(nwriters, nil), "tab6.sion", &serve.Config{CacheBytes: m.cache})
		check(err == nil, "tab6: serve.New: %v", err)
		r := zipfReplay(fs, "tab6.sion", wst, workload.Server(srv), stream, size, nil)
		err = srv.Close()
		check(err == nil, "tab6: serve.Close: %v", err)
		hit := "-"
		if lookups := r.counts.Hits + r.counts.Misses; lookups > 0 {
			hit = fmt.Sprintf("%.1f", 100*float64(r.counts.Hits)/float64(lookups))
		}
		redux := float64(base.reads.ReadRequests) / float64(r.reads.ReadRequests)
		check(redux >= m.bar, "tab6: a %d MiB cache reduced backend reads only %.1fx (%d vs %d uncached), want >= %.0fx",
			m.cache>>20, redux, r.reads.ReadRequests, base.reads.ReadRequests, m.bar)
		row(fmt.Sprintf("served-%dMiB", m.cache>>20), r, hit, fmt.Sprintf("%.1fx", redux))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("zipf(1.2) rank popularity; %d windows of %d B per client, every %dth client streams its whole rank; byte identity asserted in-run",
			workload.ZipfWindows, zipfReadLen, zipfEvery),
		"uncached: every client pays its own OpenRank metadata walk plus one backend request per window",
		"served: one layout snapshot at serve.New; misses fill the sharded block cache via dense span reads, so backend requests approach the distinct-block count of the working set",
		"request counters are simfs.FileStats sums over both physical files; the client sequence is identical in every mode")
	return res
}
