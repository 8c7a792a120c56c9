package serve

import (
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/resil"
)

// serverMetrics is the Server's instrument set, registered in one
// obs.Registry, and the per-shard cells its read-path counters live in.
// Stats() sums them and the shards' tallies and reads the instruments, and
// GET /metrics in the HTTP front end is the same registry in Prometheus
// text form, through CounterFuncs: the two surfaces can never disagree.
//
// A read, hit or miss, writes only its shards' state: cache traffic (hits,
// misses, evictions, read-arounds) counts in the block's shard itself
// (cacheShard), so a skewed workload shows up as one hot shard; the
// latency tick, the served bytes and everything the miss path counts —
// backend reads and bytes, spans, flight hits, peer fills, retries — count
// in the cell of the request's first block.
//
// Breaker opens, breaker states, and resident cache bytes are NOT
// duplicated into instruments — they already live in the breakers and the
// cache; registerDerived bridges them into the registry as
// CounterFunc/GaugeFunc reads at exposition time.
type serverMetrics struct {
	reg  *obs.Registry
	base []obs.Label
	off  bool // Nop registry: no clock reads, the cells count only retries, and Stats reads no shard tally

	cells  []shardCell  // per cache shard
	shards []cacheShard // the cache's, whose tallies count its traffic

	handles   *obs.Counter
	tailPolls *obs.Counter
	degraded  *obs.Counter

	readLat *obs.Histogram
}

// shardCell is one cache shard's share of the server's per-request state,
// padded to cache lines of its own, the first all a plain miss writes: the
// close guard of the fetches keyed to it and its counters.
type shardCell struct {
	// guard is the close guard: a backend fetch holds R on its request's
	// cell and rechecks Server.closed under it; Close holds W on every cell
	// before it sets closed, so the fetches in flight drain before the
	// files close.
	guard sync.RWMutex

	tick   atomic.Int64 // reads begun, for latency sampling
	served atomic.Int64 // serve_served_bytes_total

	// The miss path's tallies, added once per request (missDone). Span
	// fusion: blocks-per-span (fetchSpanBlocks/fetchSpans) is the
	// coalescing win. serve_backend_reads_total is fetchSpans plus
	// extraReads: re-attempts, failed spans' reads, and the further
	// requests of a span longer than the backend's ceiling.
	backendBytes, fetchSpans, fetchSpanBlocks atomic.Int64

	extraReads, flightHits, peerFills atomic.Int64
	retry                             resil.Counters // the span reads' retry budgets
	_                                 [16]byte       // to 128 bytes, two cache lines
}

// readSampleEvery is the 1-in-N sampling interval for ReadFileAt latency
// observations. Two clock reads per read would dominate a cache-hit
// (a few hundred ns); 1-in-64 keeps the histogram statistically useful
// at a per-read cost of one atomic add.
const readSampleEvery = 64

// newServerMetrics registers the serve instrument families. base labels
// (e.g. node=<id> from a cluster) are prepended to every family; shards
// are the cache's, one cell each.
func newServerMetrics(reg *obs.Registry, base []obs.Label, shards []cacheShard) *serverMetrics {
	m := &serverMetrics{reg: reg, base: base, off: reg.Disabled(), cells: make([]shardCell, len(shards)), shards: shards}
	for i := range shards {
		sh := &shards[i]
		lbl := append(append([]obs.Label(nil), base...), obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		m.counterFunc("serve_cache_hits_total",
			"block lookups served from the cache, by shard", &sh.hits, lbl)
		m.counterFunc("serve_cache_misses_total",
			"block lookups that went to the miss path, by shard", &sh.misses, lbl)
		m.counterFunc("serve_cache_evictions_total",
			"cache blocks evicted, by shard", &sh.evictions, lbl)
		m.counterFunc("serve_cache_read_around_total",
			"missed blocks read into the caller's buffer instead of cached (declined by a full shard, or past a live frontier), by shard", &sh.readAround, lbl)
	}
	m.sumFunc("serve_flight_hits_total",
		"missed blocks a concurrent reader's fetch made resident first (singleflight), no new backend read",
		func(t cellTotals) int64 { return t.flightHits })
	m.sumFunc("serve_backend_reads_total",
		"span reads issued to the backend (each retry attempt counts)",
		func(t cellTotals) int64 { return t.backendReads })
	m.sumFunc("serve_backend_bytes_total", "bytes moved by backend span reads",
		func(t cellTotals) int64 { return t.backendBytes })
	m.sumFunc("serve_served_bytes_total", "logical bytes handed to clients",
		func(t cellTotals) int64 { return t.served })
	m.handles = reg.Counter("serve_handles_opened_total",
		"client sessions opened (Open)", base...)
	m.tailPolls = reg.Counter("serve_tail_polls_total",
		"watermark refreshes issued by Poll on a live multifile", base...)
	m.sumFunc("serve_peer_fills_total",
		"missed blocks filled from a peer cache instead of the backend",
		func(t cellTotals) int64 { return t.peerFills })
	m.degraded = reg.Counter("serve_degraded_total",
		"requests failed fast with ErrDegraded (circuit open)", base...)
	m.sumFunc("serve_fetch_spans_total",
		"dense spans read from the backend by missing readers (post-coalescing, successful)",
		func(t cellTotals) int64 { return t.fetchSpans })
	m.sumFunc("serve_fetch_span_blocks_total",
		"missed cache blocks those spans materialized (span fusion ratio = blocks/spans)",
		func(t cellTotals) int64 { return t.fetchSpanBlocks })
	m.sumFunc("serve_retries_total",
		"backend span reads re-attempted after a transient failure",
		func(t cellTotals) int64 { return t.retries })
	m.sumFunc("serve_giveups_total",
		"span reads that exhausted their retry budget",
		func(t cellTotals) int64 { return t.giveUps })
	m.readLat = reg.Histogram("serve_read_seconds",
		"sampled ReadFileAt latency (1-in-64 reads)", base...)
	return m
}

// counterFunc exposes one cell counter as the counter (name, lbl).
func (m *serverMetrics) counterFunc(name, help string, v *atomic.Int64, lbl []obs.Label) {
	m.reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, lbl...)
}

// sumFunc exposes one of the cells' totals as the counter name under the
// base labels.
func (m *serverMetrics) sumFunc(name, help string, field func(cellTotals) int64) {
	m.reg.CounterFunc(name, help, func() float64 { return float64(field(m.totals())) }, m.base...)
}

// cellTotals is the cells' counters and the shards' tallies summed.
type cellTotals struct {
	hits, misses, evictions, readAround int64
	served, flightHits, peerFills       int64
	backendReads, backendBytes          int64
	fetchSpans, fetchSpanBlocks         int64
	retries, giveUps                    int64
}

// totals sums the cells' counters and, unless the registry is Nop, the
// shards' tallies.
func (m *serverMetrics) totals() (t cellTotals) {
	for i := range m.cells {
		c := &m.cells[i]
		if sh := &m.shards[i]; !m.off {
			t.hits += sh.hits.Load()
			t.misses += sh.misses.Load()
			t.evictions += sh.evictions.Load()
			t.readAround += sh.readAround.Load()
		}
		t.served += c.served.Load()
		t.flightHits += c.flightHits.Load()
		t.peerFills += c.peerFills.Load()
		t.backendReads += c.fetchSpans.Load() + c.extraReads.Load()
		t.backendBytes += c.backendBytes.Load()
		t.fetchSpans += c.fetchSpans.Load()
		t.fetchSpanBlocks += c.fetchSpanBlocks.Load()
		t.retries += c.retry.Retries.Load()
		t.giveUps += c.retry.GiveUps.Load()
	}
	return t
}

// lookup counts one block lookup, a hit or a miss, in shard si's tally.
func (m *serverMetrics) lookup(si int, hit bool) {
	switch {
	case m.off:
	case hit:
		m.shards[si].hits.Add(1)
	default:
		m.shards[si].misses.Add(1)
	}
}

// readStart begins a (possibly sampled) latency observation of a read
// counted in cell c: it returns a clock reading to pass to readDone, or 0
// when this read is not sampled. Each cell samples the first of every
// readSampleEvery reads it counts, so a deterministic request order
// samples deterministically.
func (m *serverMetrics) readStart(c *shardCell) int64 {
	if m.off {
		return 0
	}
	if c.tick.Add(1)%readSampleEvery != 1 {
		return 0
	}
	return m.reg.Now()
}

// readDone counts a successful read's n bytes as served in cell c and
// completes the observation begun with readStart (none if start is 0).
func (m *serverMetrics) readDone(c *shardCell, start, n int64) {
	if m.off {
		return
	}
	c.served.Add(n)
	if start != 0 {
		m.readLat.Observe(m.reg.Now() - start)
	}
}

// missDone counts what one request's fetch did in cell c, once: its flight
// hits, peer fills, backend read attempts and their bytes, and spans with
// the blocks they materialized. A zero is not written, so a plain miss
// leaves the first two lines alone.
func (m *serverMetrics) missDone(c *shardCell, cost missCost) {
	if m.off {
		return
	}
	addNonZero(&c.flightHits, cost.flightHits)
	addNonZero(&c.peerFills, cost.peerFills)
	addNonZero(&c.backendBytes, cost.readBytes)
	addNonZero(&c.fetchSpans, cost.spans)
	addNonZero(&c.fetchSpanBlocks, cost.spanBlocks)
	addNonZero(&c.extraReads, cost.reads-cost.spans)
}

func addNonZero(v *atomic.Int64, n int64) {
	if n != 0 {
		v.Add(n)
	}
}

// registerDerived bridges state that already lives elsewhere in the
// server — breaker opens, resident cache bytes — into the registry as
// exposition-time reads. Called once per Server after the cache exists.
func (s *Server) registerDerived() {
	m := s.m
	m.reg.CounterFunc("serve_breaker_opens_total",
		"circuit-open transitions across all physical files",
		func() float64 { return float64(s.breakerOpens()) }, m.base...)
	m.reg.GaugeFunc("serve_cache_resident_bytes",
		"bytes resident in the block cache",
		func() float64 { return float64(s.cache.cachedBytes()) }, m.base...)
}

// registerBreakerGauge exposes one physical file's breaker state as a
// gauge (0 closed, 1 open, 2 half-open — resil.BreakerState order).
// Called from New for each file with a breaker.
func (s *Server) registerBreakerGauge(file int, path string) {
	br := s.breakers[file]
	if br == nil {
		return
	}
	lbl := append(append([]obs.Label(nil), s.m.base...),
		obs.Label{Key: "file", Value: strconv.Itoa(file)},
		obs.Label{Key: "path", Value: path})
	s.m.reg.GaugeFunc("serve_breaker_state",
		"circuit breaker state per physical file (0 closed, 1 open, 2 half-open)",
		func() float64 { return float64(br.State()) }, lbl...)
}
