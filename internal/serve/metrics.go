package serve

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// serverMetrics is the Server's instrument set, registered in one
// obs.Registry. The server's counters live here — Stats() is a snapshot
// of these instruments, and GET /metrics in the HTTP front end is the
// same registry in Prometheus text form, so the two surfaces can never
// disagree.
//
// Cache traffic (hits, misses, evictions, read-arounds) is counted per
// shard, so a skewed workload shows up as one hot shard. Every read
// also ticks the latency sampler and counts its served bytes in the cell of
// its first block's shard, so a resident hit writes nothing server-wide.
//
// Retries, give-ups, breaker opens, breaker states, and resident cache
// bytes are NOT duplicated into instruments — they already live in
// resil.Counters, the breakers, and the cache; registerDerived bridges
// them into the registry as CounterFunc/GaugeFunc reads at exposition
// time.
type serverMetrics struct {
	reg  *obs.Registry
	base []obs.Label
	off  bool // Nop registry: skip clock reads on the hot path

	hits       []*obs.Counter // per cache shard
	misses     []*obs.Counter
	evictions  []*obs.Counter
	readAround []*obs.Counter

	cells []shardCell // per cache shard

	flightHits   *obs.Counter
	backendReads *obs.Counter
	backendBytes *obs.Counter
	handles      *obs.Counter
	tailPolls    *obs.Counter
	peerFills    *obs.Counter
	degraded     *obs.Counter

	// Span fusion on the miss path: blocks-per-span
	// (fetchSpanBlocks/fetchSpans) is the coalescing win.
	fetchSpans      *obs.Counter
	fetchSpanBlocks *obs.Counter

	readLat *obs.Histogram
}

// shardCell is one cache shard's share of the per-read tallies, padded to
// a cache line of its own.
type shardCell struct {
	tick   atomic.Int64 // reads begun, for latency sampling
	served atomic.Int64 // serve_served_bytes_total
	_      [48]byte
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
	m.hits = make([]*obs.Counter, shards)
	m.misses = make([]*obs.Counter, shards)
	m.evictions = make([]*obs.Counter, shards)
	m.readAround = make([]*obs.Counter, shards)
	for i := 0; i < shards; i++ {
		lbl := append(append([]obs.Label(nil), base...), obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		m.hits[i] = reg.Counter("serve_cache_hits_total",
			"block lookups served from the cache, by shard", lbl...)
		m.misses[i] = reg.Counter("serve_cache_misses_total",
			"block lookups that went to the miss path, by shard", lbl...)
		m.evictions[i] = reg.Counter("serve_cache_evictions_total",
			"cache blocks evicted, by shard", lbl...)
		m.readAround[i] = reg.Counter("serve_cache_read_around_total",
			"missed blocks a full shard declined, read into the caller's buffer instead of cached, by shard", lbl...)
	}
	m.flightHits = reg.Counter("serve_flight_hits_total",
		"missed blocks a concurrent reader's fetch made resident first (singleflight), no new backend read", base...)
	m.backendReads = reg.Counter("serve_backend_reads_total",
		"span reads issued to the backend (each retry attempt counts)", base...)
	m.backendBytes = reg.Counter("serve_backend_bytes_total",
		"bytes moved by backend span reads", base...)
	reg.CounterFunc("serve_served_bytes_total", "logical bytes handed to clients",
		func() float64 { return float64(m.servedBytes()) }, base...)
	m.handles = reg.Counter("serve_handles_opened_total",
		"client sessions opened (Open and Tail)", base...)
	m.tailPolls = reg.Counter("serve_tail_polls_total",
		"watermark refreshes issued (tail servers)", base...)
	m.peerFills = reg.Counter("serve_peer_fills_total",
		"missed blocks filled from a peer cache instead of the backend", base...)
	m.degraded = reg.Counter("serve_degraded_total",
		"requests failed fast with ErrDegraded (circuit open)", base...)
	m.fetchSpans = reg.Counter("serve_fetch_spans_total",
		"dense spans read from the backend by missing readers (post-coalescing, successful)", base...)
	m.fetchSpanBlocks = reg.Counter("serve_fetch_span_blocks_total",
		"missed cache blocks those spans materialized (span fusion ratio = blocks/spans)", base...)
	m.readLat = reg.Histogram("serve_read_seconds",
		"sampled ReadFileAt latency (1-in-64 reads)", base...)
	return m
}

// sumCounters totals a per-shard counter family.
func sumCounters(cs []*obs.Counter) int64 {
	var n int64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

// servedBytes totals the cells' served bytes.
func (m *serverMetrics) servedBytes() int64 {
	var n int64
	for i := range m.cells {
		n += m.cells[i].served.Load()
	}
	return n
}

// readStart begins a (possibly sampled) latency observation of a read
// counted in shard si's cell: it returns a clock reading to pass to
// readDone, or 0 when this read is not sampled. Each shard samples the
// first of every readSampleEvery reads it counts, so a deterministic
// request order samples deterministically.
func (m *serverMetrics) readStart(si int) int64 {
	if m.off {
		return 0
	}
	if m.cells[si].tick.Add(1)%readSampleEvery != 1 {
		return 0
	}
	return m.reg.Now()
}

// readDone counts a successful read's n bytes as served in shard si's cell
// and completes the observation begun with readStart (none if start is 0).
func (m *serverMetrics) readDone(si int, start, n int64) {
	if m.off {
		return
	}
	m.cells[si].served.Add(n)
	if start != 0 {
		m.readLat.Observe(m.reg.Now() - start)
	}
}

// registerDerived bridges state that already lives elsewhere in the
// server — retry counters, breaker opens, resident cache bytes — into
// the registry as exposition-time reads. Called once per Server after
// the cache and counters exist.
func (s *Server) registerDerived() {
	m := s.m
	m.reg.CounterFunc("serve_retries_total",
		"backend span reads re-attempted after a transient failure",
		func() float64 { return float64(s.retryCtrs.Retries.Load()) }, m.base...)
	m.reg.CounterFunc("serve_giveups_total",
		"span reads that exhausted their retry budget",
		func() float64 { return float64(s.retryCtrs.GiveUps.Load()) }, m.base...)
	m.reg.CounterFunc("serve_breaker_opens_total",
		"circuit-open transitions across all physical files",
		func() float64 { return float64(s.breakerOpens()) }, m.base...)
	m.reg.GaugeFunc("serve_cache_resident_bytes",
		"bytes resident in the block cache",
		func() float64 { return float64(s.cache.cachedBytes()) }, m.base...)
}

// registerBreakerGauge exposes one physical file's breaker state as a
// gauge (0 closed, 1 open, 2 half-open — resil.BreakerState order).
// Called from openPhysical for each file with a breaker.
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
