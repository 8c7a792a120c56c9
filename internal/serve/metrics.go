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
// Stats() sums the cells and reads the instruments, and GET /metrics in the
// HTTP front end is the same registry in Prometheus text form — the cells
// exposed as CounterFuncs — so the two surfaces can never disagree.
//
// A read, hit or miss, writes only its shards' cells: cache traffic (hits,
// misses, evictions, read-arounds) counts in the cell of the block's
// shard, so a skewed workload shows up as one hot shard; the latency tick,
// the served bytes and everything the miss path counts — backend reads and
// bytes, spans, flight hits, peer fills, retries — count in the cell of
// the request's first block.
//
// Breaker opens, breaker states, and resident cache bytes are NOT
// duplicated into instruments — they already live in the breakers and the
// cache; registerDerived bridges them into the registry as
// CounterFunc/GaugeFunc reads at exposition time.
type serverMetrics struct {
	reg  *obs.Registry
	base []obs.Label
	off  bool // Nop registry: no clock reads, and the cells count only retries

	cells []shardCell // per cache shard

	handles   *obs.Counter
	tailPolls *obs.Counter
	degraded  *obs.Counter

	readLat *obs.Histogram
}

// shardCell is one cache shard's share of the server's per-read state,
// padded to cache lines of its own: the close guard of the fetches keyed
// to it and its counters.
type shardCell struct {
	// guard is the close guard: a backend fetch holds R on its request's
	// cell and rechecks Server.closed under it; Close holds W on every cell
	// before it sets closed, so the fetches in flight drain before the
	// files close.
	guard sync.RWMutex

	tick   atomic.Int64 // reads begun, for latency sampling
	served atomic.Int64 // serve_served_bytes_total

	// serve_cache_{hits,misses,evictions,read_around}_total of this shard.
	hits, misses, evictions, readAround atomic.Int64

	// The miss path's tallies. Span fusion: blocks-per-span
	// (fetchSpanBlocks/fetchSpans) is the coalescing win.
	flightHits, peerFills       atomic.Int64
	backendReads, backendBytes  atomic.Int64
	fetchSpans, fetchSpanBlocks atomic.Int64
	retry                       resil.Counters // the span reads' retry budgets
	_                           [48]byte       // to 192 bytes, three cache lines
}

// readSampleEvery is the 1-in-N sampling interval for ReadFileAt latency
// observations. Two clock reads per read would dominate a cache-hit
// (a few hundred ns); 1-in-64 keeps the histogram statistically useful
// at a per-read cost of one atomic add.
const readSampleEvery = 64

// newServerMetrics registers the serve instrument families. base labels
// (e.g. node=<id> from a cluster) are prepended to every family; shards
// is the resolved cache shard count.
func newServerMetrics(reg *obs.Registry, base []obs.Label, shards int) *serverMetrics {
	m := &serverMetrics{reg: reg, base: base, off: reg.Disabled(), cells: make([]shardCell, shards)}
	for i := range m.cells {
		c := &m.cells[i]
		lbl := append(append([]obs.Label(nil), base...), obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		m.counterFunc("serve_cache_hits_total",
			"block lookups served from the cache, by shard", &c.hits, lbl)
		m.counterFunc("serve_cache_misses_total",
			"block lookups that went to the miss path, by shard", &c.misses, lbl)
		m.counterFunc("serve_cache_evictions_total",
			"cache blocks evicted, by shard", &c.evictions, lbl)
		m.counterFunc("serve_cache_read_around_total",
			"missed blocks a full shard declined, read into the caller's buffer instead of cached, by shard", &c.readAround, lbl)
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

// cellTotals is the cells' counters summed over the shards.
type cellTotals struct {
	hits, misses, evictions, readAround int64
	served, flightHits, peerFills       int64
	backendReads, backendBytes          int64
	fetchSpans, fetchSpanBlocks         int64
	retries, giveUps                    int64
}

// totals sums the cells' counters.
func (m *serverMetrics) totals() (t cellTotals) {
	for i := range m.cells {
		c := &m.cells[i]
		t.hits += c.hits.Load()
		t.misses += c.misses.Load()
		t.evictions += c.evictions.Load()
		t.readAround += c.readAround.Load()
		t.served += c.served.Load()
		t.flightHits += c.flightHits.Load()
		t.peerFills += c.peerFills.Load()
		t.backendReads += c.backendReads.Load()
		t.backendBytes += c.backendBytes.Load()
		t.fetchSpans += c.fetchSpans.Load()
		t.fetchSpanBlocks += c.fetchSpanBlocks.Load()
		t.retries += c.retry.Retries.Load()
		t.giveUps += c.retry.GiveUps.Load()
	}
	return t
}

// lookup counts one block lookup, a hit or a miss, in shard si's cell.
func (m *serverMetrics) lookup(si int, hit bool) {
	switch {
	case m.off:
	case hit:
		m.cells[si].hits.Add(1)
	default:
		m.cells[si].misses.Add(1)
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

// backendRead counts one backend read attempt of size bytes in cell c.
func (m *serverMetrics) backendRead(c *shardCell, size int64) {
	if m.off {
		return
	}
	c.backendReads.Add(1)
	c.backendBytes.Add(size)
}

// missDone counts what one request's fetch resolved in cell c: its flight
// hits, peer fills, and spans with the blocks they materialized. A zero is
// not written, so a plain miss leaves the first two lines alone.
func (m *serverMetrics) missDone(c *shardCell, cost missCost) {
	if m.off {
		return
	}
	addNonZero(&c.flightHits, cost.flightHits)
	addNonZero(&c.peerFills, cost.peerFills)
	addNonZero(&c.fetchSpans, cost.spans)
	addNonZero(&c.fetchSpanBlocks, cost.spanBlocks)
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
