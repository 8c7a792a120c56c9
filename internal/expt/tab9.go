package expt

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simfs"
)

// Table 9 (extension): scale-out of the serving tier (internal/cluster).
// tab6 showed one serve node amortizing a zipfian client storm through
// its block cache; tab9 asks what N nodes buy. The naive scale-out — N
// independent caches behind a round-robin balancer — multiplies backend
// traffic by ~N, because every node faults the same hot working set in
// separately. The cluster router instead consistent-hashes 256 KiB
// granules across the ring (each block cached on exactly one node),
// routes a read as one node call per granule it touches, and peer-fills
// remapped blocks from surviving caches across join/leave: the working
// set is read from the backend once per cluster, not once per node. A
// static ring never peer-fills — every granule has one owner, whose cache
// alone holds its blocks — so the steady cluster's peer-fill column is 0
// and the churn row's counts the remapped blocks.
//
// The experiment replays the identical zipfian trace (same LCG seed as
// tab6's generator) through three arrangements of the same per-node
// cache budget: 3 independent serve nodes round-robined, the 3-node
// cluster, and the 3-node cluster with a node joining and another
// leaving mid-storm. It asserts, in-run (panics abort the table):
//
//   - every window and full-stream read is byte-identical to the written
//     payload, in every mode, including mid-churn;
//   - the 3-node cluster issues at least 2× fewer backend read requests
//     than the 3 independent caches on the same trace;
//   - the per-client backend-request tail stays bounded across the
//     join/leave churn (p99 ≤ tab9P99Bound — the latency proxy in a
//     request-counting simulation: a client's stall is the backend
//     requests its reads must wait on);
//   - a replay of the cluster run from the same seed reproduces the
//     request counters exactly.
const (
	tab9Writers  = 256
	tab9Chunk    = int64(64) << 10 // one 64 KiB FS block per chunk
	tab9NFiles   = 2
	tab9Clients  = 8192 // 32 clients per writer: reuse-dominated at every scale
	tab9Nodes    = 3
	tab9Seed     = uint64(0x5107a) // tab6's client-trace seed
	tab9P99Bound = int64(8)        // max backend requests per client, churn mode
)

// tab9CacheBytes is each node's cache budget: half the storm's working
// set, at every scale. The 3-node aggregate (1.5× the working set) holds
// everything; any single node cannot — the provisioning a partitioned
// cluster exists for. Independent nodes, each serving the whole zipfian
// population from half-sized caches, churn their LRU tails; the cluster
// gives every node only its ring share (~1/3) and never evicts.
func tab9CacheBytes(nwriters int) int64 {
	var ws int64
	for g := 0; g < nwriters; g++ {
		ws += int64(tab9Size(g))
	}
	return ws / 2
}

// tab9NodeConfig is every node's serve configuration, identical in all
// modes. Span merging is adjacent-only (MaxSpanGap -1): gap merging
// trades a fat over-fetch for one request, which deflates the request
// counter the comparison is about — with it off, both modes pay one
// request per cold block and the table isolates the cache economics.
func tab9NodeConfig(nwriters int) *serve.Config {
	// One shard: the scaled-down cache is a few dozen blocks, and split
	// over the default 16 shards each shard holds one or two — eviction
	// would be governed by shard collisions, not by the LRU order the
	// comparison reasons about.
	return &serve.Config{CacheBytes: tab9CacheBytes(nwriters), MaxSpanGap: -1, Shards: 1}
}

// tab9Size is writer g's payload size: ~3.5 chunks, varied per rank —
// fatter than tab6's so the storm's economics are dominated by data
// blocks, not by the fixed per-node layout parse, and so the full-scale
// working set overflows one node's cache but fits the cluster's
// aggregate.
func tab9Size(g int) int {
	return 2*int(tab9Chunk) + payloadSize(tab9Chunk, g)
}

// tab9Run is one mode's measurement: write the multifile fresh, replay
// the zipfian trace through `storm`, and return the read-phase backend
// request count plus the per-client backend-request tail.
type tab9Run struct {
	readReqs int64
	p99      int64
	cl       cluster.Stats // zero for the independent mode
}

// tab9Storm drives the client loop, measuring each client's backend
// request cost, with a hook before each client (membership churn).
func tab9Storm(fs *simfs.FS, nwriters, nclients int, before func(c int), open func(g int) sion.LogicalReaderAt) []int64 {
	rng := &tab6Rand{x: tab9Seed}
	zipf := newTab6Zipf(nwriters)
	costs := make([]int64, 0, nclients)
	prev := dumpStats(fs, "tab9.sion", tab9NFiles).ReadRequests
	for c := 0; c < nclients; c++ {
		if before != nil {
			before(c)
		}
		zipfClient("tab9", c, rng, zipf, tab9Size, open)
		now := dumpStats(fs, "tab9.sion", tab9NFiles).ReadRequests
		costs = append(costs, now-prev)
		prev = now
	}
	return costs
}

// tab9P99 is the 99th percentile of the per-client cost samples.
func tab9P99(costs []int64) int64 {
	s := append([]int64(nil), costs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}

// tab9Write builds a fresh simulated machine with the multifile written
// and caches dropped, returning the fs and the write-phase stats.
func tab9Write(nwriters int) (*simfs.FS, simfs.FileStats) {
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab6"))
	return fs, writeDump(fs, nwriters, "tab9.sion", &sion.Options{ChunkSize: tab9Chunk, NFiles: tab9NFiles}, tab9Size)
}

// tab9Independent is the naive scale-out: three independent serve nodes,
// each with the per-node cache budget, clients round-robined across them.
func tab9Independent(nwriters, nclients int) tab9Run {
	fs, wst := tab9Write(nwriters)
	nodes := make([]*serve.Server, tab9Nodes)
	for i := range nodes {
		srv, err := serve.New(fs.View(nwriters+1+i, nil), "tab9.sion", tab9NodeConfig(nwriters))
		check(err == nil, "tab9: serve.New, node %d: %v", i, err)
		nodes[i] = srv
	}
	cur := 0
	costs := tab9Storm(fs, nwriters, nclients, func(c int) { cur = c % tab9Nodes }, func(g int) sion.LogicalReaderAt {
		h, err := nodes[cur].Open(g)
		check(err == nil, "tab9: node %d: Open(%d): %v", cur, g, err)
		return h
	})
	for i, srv := range nodes {
		err := srv.Close()
		check(err == nil, "tab9: serve.Close, node %d: %v", i, err)
	}
	st := dumpStats(fs, "tab9.sion", tab9NFiles)
	return tab9Run{readReqs: st.ReadRequests - wst.ReadRequests, p99: tab9P99(costs)}
}

// tab9Cluster is the router: tab9Nodes nodes on the hash ring and — when
// churn is set — a node joining a third of the way through the storm and
// another leaving at two thirds, with serving (and byte identity)
// uninterrupted.
func tab9Cluster(nwriters, nclients int, churn bool) tab9Run {
	fs, wst := tab9Write(nwriters)
	cl := cluster.New(nil)
	join := func(i int) {
		id := fmt.Sprintf("n%d", i)
		_, err := cl.Join(id, fs.View(nwriters+1+i, nil), "tab9.sion", tab9NodeConfig(nwriters))
		check(err == nil, "tab9: join %s: %v", id, err)
	}
	for i := 0; i < tab9Nodes; i++ {
		join(i)
	}
	var before func(c int)
	if churn {
		before = func(c int) {
			switch c {
			case nclients / 3:
				join(tab9Nodes) // a fresh node takes over ~1/4 of the granules
			case 2 * nclients / 3:
				err := cl.Leave("n1")
				check(err == nil, "tab9: leave n1: %v", err)
			}
		}
	}
	costs := tab9Storm(fs, nwriters, nclients, before, func(g int) sion.LogicalReaderAt {
		h, err := cl.Open(g)
		check(err == nil, "tab9: cluster Open(%d): %v", g, err)
		return h
	})
	run := tab9Run{cl: cl.Stats(), p99: tab9P99(costs)}
	err := cl.Close()
	check(err == nil, "tab9: cluster Close: %v", err)
	st := dumpStats(fs, "tab9.sion", tab9NFiles)
	run.readReqs = st.ReadRequests - wst.ReadRequests
	return run
}

// Table9 regenerates the serving-tier scale-out table. See the package
// comment above the tab9 constants for the asserted claims.
func Table9(scale int) *Result {
	res := &Result{
		Name:   "tab9",
		Title:  "Table 9 (ext): clustered serving tier (internal/cluster), zipfian storm over 3-5 nodes, jugene, 64 KiB blocks",
		Header: []string{"read mode", "writers", "clients", "rd reqs", "peer fills", "failovers", "p99/client", "redux"},
	}
	// Floors keep the scaled-down storm hot: with too many ranks per
	// client the zipf tail is read on only one of the independent nodes
	// and the duplication the cluster removes never builds up.
	nwriters := scaleDown(tab9Writers, scale, 16)
	nclients := scaleDown(tab9Clients, scale, 512)

	ind := tab9Independent(nwriters, nclients)
	clu := tab9Cluster(nwriters, nclients, false)
	chu := tab9Cluster(nwriters, nclients, true)
	replay := tab9Cluster(nwriters, nclients, false)

	// The claims, asserted where the numbers are born so every consumer
	// (sionbench, go test, CI) trips on a regression.
	redux := float64(ind.readReqs) / float64(clu.readReqs)
	check(redux >= 2, "tab9: cluster reduced backend reads only %.2fx over independent caches (%d vs %d), want >= 2x",
		redux, clu.readReqs, ind.readReqs)
	check(chu.p99 <= tab9P99Bound, "tab9: churn p99 backend requests per client = %d, bound %d", chu.p99, tab9P99Bound)
	check(chu.cl.AllReplicasDown == 0, "tab9: %d reads exhausted all replicas during churn", chu.cl.AllReplicasDown)
	check(replay.readReqs == clu.readReqs && replay.cl.Requests == clu.cl.Requests &&
		replay.cl.Serve.PeerFills == clu.cl.Serve.PeerFills && replay.cl.Serve.BackendReads == clu.cl.Serve.BackendReads,
		"tab9: replay diverged: reads %d vs %d, routed %d vs %d, peer fills %d vs %d, backend %d vs %d",
		replay.readReqs, clu.readReqs, replay.cl.Requests, clu.cl.Requests,
		replay.cl.Serve.PeerFills, clu.cl.Serve.PeerFills, replay.cl.Serve.BackendReads, clu.cl.Serve.BackendReads)

	row := func(label string, r tab9Run, redux string) {
		pf, fo := "-", "-"
		if r.cl.Nodes > 0 || r.cl.Requests > 0 {
			pf = fmt.Sprintf("%d", r.cl.Serve.PeerFills)
			fo = fmt.Sprintf("%d", r.cl.Failovers)
		}
		res.Rows = append(res.Rows, []string{
			label, kfmt(nwriters), kfmt(nclients),
			fmt.Sprintf("%d", r.readReqs), pf, fo,
			fmt.Sprintf("%d", r.p99), redux,
		})
	}
	row(fmt.Sprintf("independent-%d", tab9Nodes), ind, "1.0x")
	row(fmt.Sprintf("cluster-%d", tab9Nodes), clu, fmt.Sprintf("%.1fx", redux))
	row("cluster-join/leave", chu, fmt.Sprintf("%.1fx", float64(ind.readReqs)/float64(chu.readReqs)))
	row("cluster-replay", replay, "identical")

	res.Notes = append(res.Notes,
		fmt.Sprintf("identical zipf(1.2) trace (seed %#x) in every mode; %d windows of %d B per client, every 16th client streams its rank; byte identity asserted in-run",
			tab9Seed, zipfReads, zipfReadLen),
		fmt.Sprintf("independent: %d serve nodes round-robined, each faulting the zipfian working set into its own half-working-set cache (%d KiB here)", tab9Nodes, tab9CacheBytes(nwriters)>>10),
		"cluster: 256 KiB granules consistent-hashed across the ring, each block cached once cluster-wide on its granule's owner; a static ring never peer-fills",
		fmt.Sprintf("join/leave: a 4th node joins at storm third, node n1 leaves at two thirds; remapped blocks peer-fill from surviving caches; p99 backend requests per client bounded at %d", tab9P99Bound),
		"replay: rerunning the cluster mode from the seed reproduces request counters exactly (asserted)")
	return res
}
