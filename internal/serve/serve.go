// Package serve is a concurrent read-serving subsystem over a multifile:
// it fronts one multifile (on any fsio backend) for large numbers
// of logical clients, decoupling the many logical reads from the few
// backend file requests — the read-side scale lever CkIO (arXiv:2411.18593)
// gets from aggregating reader requests, and collective-buffering models
// (Zhang et al., arXiv:0901.0134) get from a cache-and-broadcast layer
// amortizing backend access across loosely coupled clients. Before this
// layer, every logical read walked the multifile per handle with no
// cross-client reuse.
//
// Three mechanisms do the work:
//
//   - A sharded block cache that owns its memory (cache.go): physical-file
//     bytes are cached in fixed-size blocks keyed by (physical file, block
//     index). A block is sized for the copy, not the disk: by default the
//     smallest multiple of the FS block that is at least 32 KiB, so on
//     POSIX's 4 KiB blocks a 64 KiB hit is 2 lookups, not 16. Blocks lie
//     on each physical file's chunk grid, whose origin is the file's first
//     chunk (sion.Layout.GridShift). Shards are a power of two, each with its own lock
//     and LRU list, under one budget split across shards in whole blocks.
//     Frames are
//     carved from slabs of up to 8 MiB, taken as blocks arrive while the
//     budget has room and advised onto 2 MiB huge pages on Linux, so a hit
//     on a large resident set copies from huge pages, as the pread it
//     stands in for does; frames are recycled on eviction, but a vacated
//     frame a copy-out still reads waits until it is done. Hits are
//     copied out, never lent, so nothing outside the cache ever aliases a
//     resident frame. A full shard admits by frequency (TinyLFU): a
//     missed block of a window of at least an FS block is admitted only if
//     the shard was asked for it more often than for its LRU tail, and
//     enters at the tail until its first hit; otherwise it is read around
//     the cache, into the caller's buffer. A shard with room, or a window
//     smaller than an FS block (whose whole FS block the backend reads
//     anyway), admits every miss.
//   - A miss path on the reader's own goroutine (fetch.go): a read enters
//     a pending cache entry per missing block, fuses the blocks into dense
//     spans with the gap-splitting rule of the mapped collective open
//     (sion.CoalesceExtents), reads each span into the frames with one
//     backend read (fsio.ReadvAt: preadv on Linux, pread for one vector),
//     retried only once it fails, and copies each block's share into the
//     caller's buffer before making its frame resident. A resident block a span bridges is read into the caller's
//     buffer with it, not copied out of the cache as well: the cache pass
//     pins a hit after the first miss and copies it only if no span read
//     it. A first miss reads only the FS blocks its window touches
//     (a frame holds a valid range of its block); a later window outside
//     that range extends it and reads only what the frame lacks. Readers of distinct block ranges
//     read one physical file concurrently — the access pattern the
//     multifile layout was designed for (paper §3) — and a reader that
//     finds another's pending entry waits for it (singleflight):
//     concurrent misses of a block are one backend read.
//   - Cheap client sessions: Open returns a Handle holding only cursor
//     state, so opening a session issues no backend request at all.
//     Handles re-express the core read semantics (sequential Read,
//     ReadLogicalAt, key-value lookups via sion.NewKeyReaderFrom) over
//     the shared cache, through the one extent walker of sion.Layout.
//
// Consistency: a Server reads through an immutable sion.Layout snapshot
// and caches only bytes that snapshot calls committed, which never change.
// New loads it with sion.LoadTailLayout and reads through that loader's
// open files. A closed multifile's snapshot is final. For one still being
// written (tail.go), Poll publishes the next snapshot from the writers'
// watermark sidecars, and the same Handles read it from their next call on
// — sion.ErrAgain at the watermark, io.EOF once the multifile is final. A
// follower reads to ErrAgain, waits, Polls and reads on.
package serve

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/resil"
)

// ErrServerClosed is returned (wrapped) by reads issued after Close.
var ErrServerClosed = errors.New("serve: server is closed")

// ErrDegraded is returned (wrapped) by reads that need a backend fetch
// from a physical file whose circuit breaker is open: the backend has
// been failing transiently and the server is failing fast instead of
// queueing more doomed reads behind it. Reads satisfied entirely from the
// cache keep succeeding while a file is degraded. The condition is
// temporary by construction — the breaker admits a half-open probe after its
// cooldown — so clients should back off and retry (internal/httpapi maps
// this to 503 + Retry-After).
var ErrDegraded = errors.New("serve: degraded: backend circuit open")

// Config tunes a Server. The zero value (or nil) picks the defaults.
type Config struct {
	// CacheBytes is the total block-cache budget (default 64 MiB). It is
	// held in whole blocks: each shard gets the same whole number of them,
	// and the first shards one leftover block each, so a cache holds
	// CacheBytes rounded down to whole blocks (a byte split stranded part
	// of a block in every shard). The effective shard count shrinks until
	// every shard holds at least one block, so tiny budgets degrade to a
	// small cache, never to a useless one.
	CacheBytes int64

	// BlockBytes is the cache-block size (default: the smallest multiple
	// of the multifile's FS block size that is at least 32 KiB, see
	// minCacheBlock). The FS block is the unit the file system locks
	// (paper §3.1), not the unit worth a cache lookup: every block a read
	// touches pays a lookup's bookkeeping, so the default groups FS blocks
	// until a lookup covers 32 KiB, which took ckpt-large's
	// cluster_vs_pread from 0.735 (16 KiB) to 0.779. Misses read only the
	// FS blocks they lack, but each frame takes a whole block of the
	// budget: at 64 KiB, sparse 2 KiB windows cost the zipf-burst replay
	// 41–45 % more backend bytes per served byte. FS blocks of 32 KiB or
	// more (the simulated profiles, object-store parts) are used as they
	// are. A watermarked multifile ignores this field and always uses the
	// FS block (tail.go).
	BlockBytes int64

	// Shards is the shard count, rounded up to a power of two and halved
	// until every shard holds a block; each shard's budget is a whole
	// number of blocks (see CacheBytes). The default is one shard per
	// minShardBlocks (16) blocks of the budget, a power of two, at most
	// 16: all 16 from 256 blocks (8 MiB of 32 KiB blocks) up, one below
	// 32. Shards pay in the lock contention of parallel readers, and cost
	// cache order where a shard holds few blocks (minShardBlocks).
	Shards int

	// MaxSpanGap bounds the unwanted bytes one backend span read may
	// fetch between two missed blocks (default: the backend's preferred
	// request size when its capability descriptor reports one — paying
	// up to one preferred request of gap bytes to save a request round
	// trip is the break-even point — else sion.DefaultSpanGap; negative
	// = merge only adjacent blocks).
	MaxSpanGap int64

	// Retry is the backoff budget each backend span read runs under
	// (transient failures per the fsio error contract are re-attempted;
	// permanent ones are not). nil selects the resil defaults — 4 attempts,
	// 2 ms base delay doubling to 100 ms, real time.Sleep. Simulations pass
	// a Budget with a virtual-clock Sleep; a Budget with MaxAttempts 1
	// disables retries.
	Retry *resil.Budget

	// BreakerThreshold is the number of consecutive requests whose backend
	// fetch gave up on a transient fault that open one physical file's
	// circuit breaker (0 = resil.DefaultBreakerThreshold; negative disables
	// breakers entirely).
	BreakerThreshold int

	// BreakerCooldown is the number of fail-fast rejected fetches an open
	// breaker absorbs before admitting a half-open probe
	// (0 = resil.DefaultBreakerCooldown).
	BreakerCooldown int

	// PeerFill, when non-nil, is consulted for every block a read must
	// fetch before any backend read is issued: if it fills dst with bytes
	// [from, from+len(dst)) of the block — the range the fetch would read
	// (zero-filled past EOF like a backend fetch) — and returns true, they
	// are cached locally without touching the backend. internal/cluster
	// wires this to the other nodes' Peek so a block is read from the
	// filesystem once per cluster, not once per node. The hook runs on the
	// goroutine of the reader that missed, under its request's close
	// guard and concurrently with other readers' hooks; it must not retain dst
	// and must not call back into this Server.
	PeerFill func(file int, block int64, dst []byte, from int64) bool

	// Metrics, when non-nil, is the obs registry the server registers its
	// instrument families in; nil gives the server a private registry. The
	// server's counters ARE these instruments — Stats() reads them — so
	// passing obs.Nop() disables stats along with exposition; only
	// overhead benchmarks should do that. Servers sharing one registry
	// must disambiguate with MetricLabels (internal/cluster labels each
	// node), and a registry must not mix labeled and unlabeled servers
	// (the family label-key check panics).
	Metrics *obs.Registry

	// MetricLabels are prepended to every metric family the server
	// registers (internal/cluster sets node=<id>).
	MetricLabels []obs.Label

	ablate ablation
}

// ablation switches a serving mechanism off, or reshapes it, for the
// ablation table (serving_test.go); its zero value is the shipped
// behaviour. What each mechanism pays is in internal/README.md.
type ablation struct {
	wholeFills        bool // a first miss reads its whole block: no partial valid range, no reading on
	sketchPerBlock    int  // admission sketch counters per block a shard holds (0: 8)
	sketchNeverHalves bool // the sketch never halves its counters
}

// Stats is a snapshot of a Server's request counters.
type Stats struct {
	Hits          int64 // block lookups served from the cache
	Misses        int64 // block lookups that had to go to the miss path
	FlightHits    int64 // missed blocks a concurrent reader's fetch made resident first (singleflight), no new backend read
	BackendReads  int64 // span reads issued to the backend
	BackendBytes  int64 // bytes moved by those span reads
	ServedBytes   int64 // logical bytes handed to clients
	Evictions     int64 // cache blocks evicted
	ReadAround    int64 // missed blocks read into the caller's buffer, never cached: declined by a full cache, or past a live frontier
	CachedBytes   int64 // bytes resident in the cache now
	HandlesOpened int64 // client sessions opened
	TailPolls     int64 // watermark refreshes issued by Poll on a live multifile
	PeerFills     int64 // missed blocks filled from a peer cache instead of the backend
	Retries       int64 // backend span reads re-attempted after a transient failure
	GiveUps       int64 // span reads that exhausted their retry budget
	Degraded      int64 // requests failed fast with ErrDegraded (breaker open)
	BreakerOpens  int64 // circuit-open transitions across all physical files
}

// Server serves concurrent read sessions over one multifile. All methods
// are safe for concurrent use.
//
// A read, hit or miss, writes only its shards' state and the backend: no
// lock and no counter is server-wide. A read checks closed on entry, and a
// backend fetch holds its request's close guard (shardCell.guard) and
// rechecks closed under it; Close holds every guard, so the fetches in
// flight drain before the files close.
type Server struct {
	closed atomic.Bool

	name         string           // multifile base name (error messages)
	physNames    []string         // physical file paths, indexed like files
	files        []fsio.File      // the loader's open handles (tail.File)
	shift        []int64          // per physical file: where its block grid starts before byte 0 (sion.Layout.GridShift)
	breakers     []*resil.Breaker // per physical file; nil entries = disabled
	notClosed    atomic.Int32     // breakers currently open or half-open (Degraded's O(1) answer)
	cache        *blockCache
	blockBytes   int64
	fsBlock      int64 // the multifile's FS block: a first miss reads whole ones (blockCache.fillRange), a window of one or more may be read around
	maxSpanGap   int64
	maxSpanBytes int64 // ceiling of one backend span read (0 = unbounded), see spanCeiling
	retry        resil.Budget
	breakerCfg   [2]int // resolved {threshold, cooldown}; threshold < 0 disables
	peerFill     func(file int, block int64, dst []byte, from int64) bool

	// snap is the layout every read walks: loaded by New, and published
	// by Poll while the multifile is live. tail is the loader: it owns
	// files and the watermark sidecars. pollMu orders Polls, so snapshots
	// only grow; Close takes it after the close guards.
	snap   atomic.Pointer[sion.Layout]
	tail   *sion.TailLayout
	pollMu sync.Mutex

	// m holds the per-shard cells (close guards and request counters)
	// and the obs instruments; Stats() sums the cells and the shards'
	// tallies and reads the instruments, and the registry's /metrics
	// exposition is the same values.
	m *serverMetrics
}

// New loads a multifile by layout (sion.LoadTailLayout), closed or live,
// and serves it through the loader's open files; a watermarked multifile
// is cached in FS blocks (tail.go). The cache exists before the
// instruments: shard counters match its shard count and the
// resident-bytes gauge reads it.
func New(fsys fsio.FileSystem, name string, cfg *Config) (*Server, error) {
	t, err := sion.LoadTailLayout(fsys, name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	layout := t.Layout()
	caps := fsio.CapabilitiesOf(fsys)
	fsblk := layout.FSBlockSize()
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if t.Watermarked() {
		c.BlockBytes = fsblk
	}
	c = resolveConfig(&c, fsblk, caps)
	s := &Server{
		name:         layout.Name(),
		blockBytes:   c.BlockBytes,
		fsBlock:      fsblk,
		maxSpanGap:   c.MaxSpanGap,
		maxSpanBytes: spanCeiling(caps, c.BlockBytes),
		cache:        newBlockCache(c.CacheBytes, c.Shards, c.BlockBytes),
		shift:        layout.GridShift(c.BlockBytes),
		breakerCfg:   [2]int{c.BreakerThreshold, c.BreakerCooldown},
		peerFill:     c.PeerFill,
		tail:         t,
	}
	if c.Retry != nil {
		s.retry = *c.Retry
	}
	reg := c.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.cache.ab = c.ablate
	if !c.ablate.wholeFills {
		s.cache.fsBlock = fsblk
	}
	s.m = newServerMetrics(reg, c.MetricLabels, s.cache.shards)
	s.snap.Store(layout)
	s.registerDerived()
	for k := 0; k < layout.NumFiles(); k++ {
		var br *resil.Breaker
		if s.breakerCfg[0] >= 0 {
			br = resil.NewBreaker(s.breakerCfg[0], s.breakerCfg[1])
			br.NotClosed = &s.notClosed
		}
		s.files = append(s.files, t.File(k))
		s.physNames = append(s.physNames, layout.PhysicalName(k))
		s.breakers = append(s.breakers, br)
		s.registerBreakerGauge(k, s.physNames[k])
	}
	return s, nil
}

// minCacheBlock is the floor of the default cache block: the default is
// the smallest multiple of the FS block at least this large. Every block
// a read touches costs a hash, a shard lock, a map probe, a sketch count,
// an LRU move and, on a miss, an acquire and a frame copy. At 4 KiB that
// bookkeeping outweighed the copy (a serve-hot profile spent 1.94 s in
// copyOut of which 0.71 s was memmove); 16 KiB took serve-hot's
// serve_vs_pread 0.69 -> 1.00. From 16 to 32 KiB, ckpt-large's 256 KiB-
// 1 MiB windows pay it 8-32 times instead of 16-64: its cluster_vs_pread
// went 0.735 -> 0.779 and serve_vs_pread 0.800 -> 0.836 (medians of 10
// alternating 16 s ladder pairs on 2 vCPUs), and BenchmarkMissPath's
// large/serve request went from 35.5 block lookups and 43.6 us to 18.3
// and 35.5 us (medians of 5 alternating runs at -cpu 2).
//
// A larger block fetches no more on a first miss, which reads only the FS
// blocks it touches (fillRange). What bounds it is sparse access: two
// windows far apart in one block either make the re-fill read the hull
// between them (acquire) or leave a sparse frame that takes a whole block
// of the budget. At 64 KiB ckpt-large's cluster_vs_pread reached 0.83
// (0.78 at 32 KiB in the same 3 pairs), but the zipf-burst replay
// (serving_test.go), whose 2 KiB windows land far apart, read 41-45 % more
// backend bytes per served byte than at 16 KiB; re-filling whole blocks
// read 127-133 % more, and keeping only the later window's range cost
// 62-64 % more backend reads.
const minCacheBlock = 32 << 10

// minShardBlocks sets the default shard count: one shard per this many
// blocks of the budget, a power of two, at most 16. Shards trade cache
// order for lock contention. A shard is an LRU list with its own
// admission sketch, and a list of a few blocks evicts by hash, not by
// recency: in the serving replay serve-cold's cluster nodes (21 blocks)
// read 1005.0, 972.5 and 958.0 backend spans per 1k requests at one shard
// per 1, 8 and 16 blocks, and on the ladder (85-block nodes) one shard per
// block cost serve-cold's cluster_vs_pread 2.7 % (0.631 -> 0.614, lower in
// 9 of 10 alternating 16 s pairs on 2 vCPUs). Fewer shards read less still
// (ckpt-large's 256-block server: 1141.5 at 16 shards, 1006.5 at one), but
// a resident hit from GOMAXPROCS readers (BenchmarkMissPath/resident/
// serve, 2048 blocks, medians of 9 alternating runs) took 351, 335 and
// 275 ns over 1, 4 and 16 shards at -cpu 2, and 435, 347 and 277 ns at
// -cpu 4. 16 is the largest value that leaves the ladder's 256-block
// servers all 16 shards.
const minShardBlocks = 16

// resolveConfig applies the Config defaults against the multifile's FS
// block size and the backend's capability descriptor (see the Config
// field docs). A zero descriptor reproduces the historical POSIX-tuned
// defaults exactly.
func resolveConfig(cfg *Config, fsblk int64, caps fsio.Capabilities) Config {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = (minCacheBlock + fsblk - 1) / fsblk * fsblk
	}
	if c.Shards <= 0 {
		perShard := max(1, c.CacheBytes/c.BlockBytes/minShardBlocks)
		c.Shards = 1 << min(4, bits.Len64(uint64(perShard))-1)
	}
	// Round up to a power of two first (the cache masks the key hash), so
	// the one-block guarantee below holds for the count actually used —
	// halving a rounded count keeps it a power of two.
	for n := 1; ; n <<= 1 {
		if n >= c.Shards {
			c.Shards = n
			break
		}
	}
	// Every shard holds at least one block: no count splits a budget
	// into shards too small to hold anything.
	for c.Shards > 1 && c.CacheBytes/int64(c.Shards) < c.BlockBytes {
		c.Shards /= 2
	}
	if c.MaxSpanGap == 0 {
		if caps.PreferredRequestBytes > 0 {
			c.MaxSpanGap = caps.PreferredRequestBytes
		} else {
			c.MaxSpanGap = sion.DefaultSpanGap
		}
	} else if c.MaxSpanGap < 0 {
		c.MaxSpanGap = 0
	}
	return c
}

// spanCeiling is the most one backend span read may ask for: the
// backend's ranged-read ceiling (fsio.Capabilities.MaxReadBytes; 0 =
// unbounded) rounded down to the cache-block grid, since span requests are
// built from whole blocks — never below one block (the backend splits an
// oversized single request itself). Longer dense spans are read in several
// requests of at most this size.
func spanCeiling(caps fsio.Capabilities, blockBytes int64) int64 {
	if caps.MaxReadBytes <= 0 {
		return 0
	}
	return max(caps.MaxReadBytes-caps.MaxReadBytes%blockBytes, blockBytes)
}

// Layout returns the server's current snapshot of the multifile layout:
// the one New loaded, or on a live server the one the last Poll published.
func (s *Server) Layout() *sion.Layout { return s.snap.Load() }

// BlockBytes returns the resolved cache-block size. Peers of one cluster
// must agree on it (internal/cluster enforces this at Join).
func (s *Server) BlockBytes() int64 { return s.blockBytes }

// Peek reports whether the cache holds bytes [from, from+len(dst)) of
// block `block` of physical file `file` and, if it does, copies them into
// dst (frames are recycled, so bytes are never lent): no fetch is
// triggered, no backend read is issued, and the server's hit/miss counters
// do not move — the block's LRU position does, as for any lookup. This is
// the answer side of the cluster peer-fill protocol — a node that missed
// asks its peers before the backend.
func (s *Server) Peek(file int, block int64, dst []byte, from int64) bool {
	if file < 0 || file >= len(s.physNames) || block < 0 || from < 0 {
		return false
	}
	k := blockKey{file, block}
	return s.cache.copyOut(s.cache.shardIndex(k), k, dst, from)
}

// FileReaderAt reads a window of one physical multifile member through
// some serving tier: a single Server (cache + miss path), or a cluster
// router fanning blocks out across many of them. Handles are generic over
// it, which is what lets cluster.Open reuse the Handle semantics
// unchanged.
type FileReaderAt interface {
	// ReadFileAt fills p with bytes [off, off+len(p)) of physical file
	// `file`. Reads past EOF keep the zero fill (the multifile layout
	// never maps logical bytes there). sp (nil = untraced) accumulates
	// the read's breadcrumbs: cache hits, backend reads, peer fills,
	// retries.
	ReadFileAt(file int, p []byte, off int64, sp *obs.Span) error
}

// ReadFileAt serves [off, off+len(p)) of physical file `file` through the
// cache, fetching what it misses on the caller's goroutine, and counts the
// bytes as served. It is the exported form of the internal read path, used
// by Handles and by cluster routers addressing this node. sp (nil is fine)
// accumulates what this read cost — cache hits/misses per block, and,
// for reads that missed, exactly their own backend spans, peer fills,
// flight hits, and retries.
func (s *Server) ReadFileAt(file int, p []byte, off int64, sp *obs.Span) error {
	if file < 0 || file >= len(s.files) {
		return fmt.Errorf("serve: %s: physical file %d outside 0..%d", s.name, file, len(s.files)-1)
	}
	if off < 0 {
		return fmt.Errorf("serve: %s: negative physical offset %d", s.name, off)
	}
	goff := off + s.shift[file]                                   // on the block grid
	si := s.cache.shardIndex(blockKey{file, goff / s.blockBytes}) // the request's cell: its first block's shard's
	start := s.m.readStart(&s.m.cells[si])
	if err := s.readAt(file, si, p, goff, sp); err != nil {
		return err
	}
	s.m.readDone(&s.m.cells[si], start, int64(len(p)))
	return nil
}

// Stats returns a snapshot of the request counters. The values are read
// from the same cells and instruments the registry exposes on /metrics, so
// the two surfaces agree by construction.
func (s *Server) Stats() Stats {
	m, t := s.m, s.m.totals()
	return Stats{
		Hits:          t.hits,
		Misses:        t.misses,
		FlightHits:    t.flightHits,
		BackendReads:  t.backendReads,
		BackendBytes:  t.backendBytes,
		ServedBytes:   t.served,
		Evictions:     t.evictions,
		ReadAround:    t.readAround,
		CachedBytes:   s.cache.cachedBytes(),
		HandlesOpened: m.handles.Value(),
		TailPolls:     m.tailPolls.Value(),
		PeerFills:     t.peerFills,
		Retries:       t.retries,
		GiveUps:       t.giveUps,
		Degraded:      m.degraded.Value(),
		BreakerOpens:  s.breakerOpens(),
	}
}

func (s *Server) breakerOpens() int64 {
	var n int64
	for _, br := range s.breakers {
		if br != nil {
			n += br.Snapshot().Opens
		}
	}
	return n
}

// FileHealth reports the breaker condition of one physical file.
type FileHealth struct {
	File  int                `json:"file"`
	Path  string             `json:"path"`
	State resil.BreakerState `json:"-"`
	// StateName is State rendered for JSON health endpoints.
	StateName string `json:"state"`
	// Opens counts circuit-open transitions over the server's life.
	Opens int64 `json:"opens"`
}

// Health reports per-physical-file breaker state, the substance of the
// HTTP API's /healthz endpoint (per node, via cluster.Health). With
// breakers disabled every file reports closed.
func (s *Server) Health() []FileHealth {
	out := make([]FileHealth, len(s.physNames))
	for k, path := range s.physNames {
		h := FileHealth{File: k, Path: path}
		if br := s.breakers[k]; br != nil {
			snap := br.Snapshot()
			h.State, h.Opens = snap.State, snap.Opens
		}
		h.StateName = h.State.String()
		out[k] = h
	}
	return out
}

// Degraded reports whether any physical file's breaker is currently not
// closed (the server is refusing some backend fetches). It is one atomic
// load — routers ask it on every run they route.
func (s *Server) Degraded() bool { return s.notClosed.Load() > 0 }

// Close closes the physical files. It is idempotent (a second Close
// returns nil); handles become unusable — reads issued after Close fail
// with ErrServerClosed — and in-flight reads finish first: Close takes
// every cell's close guard before it sets closed.
func (s *Server) Close() error {
	for i := range s.m.cells {
		s.m.cells[i].guard.Lock()
		defer s.m.cells[i].guard.Unlock()
	}
	if s.closed.Swap(true) {
		return nil
	}
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	return s.tail.Close()
}

// readAt serves [off, off+len(p)) of physical file `file`, off on the
// file's block grid (ReadFileAt adds its shift), whose first block maps to
// shard si: resident blocks are copied out of the cache, and from the
// first miss on readMissed takes over. sp (nil is fine) collects the
// read's breadcrumb trail.
func (s *Server) readAt(file, si int, p []byte, off int64, sp *obs.Span) error {
	if s.closed.Load() {
		return fmt.Errorf("serve: %s: %w", s.name, ErrServerClosed)
	}
	if len(p) == 0 {
		return nil // an empty window covers no block: no lookup, no fetch
	}
	// The cache pass visits each block's shard once, hashing its key once:
	// until the first miss a hit is copied out; the first miss is claimed
	// in the same visit, and readMissed goes on from it.
	c, bs := &s.m.cells[si], s.blockBytes
	for b, last := off/bs, (off+int64(len(p))-1)/bs; ; {
		k := blockKey{file, b}
		dst, from := blockWindow(p, off, b, bs)
		if sh, e := s.cache.lookup(si, k, dst, from); sh != nil {
			snap := s.snap.Load()
			base, top := s.bounds(snap, file, b)
			f, got := s.cache.claimMiss(sh, k, e, dst, from, base, top, bs, int64(len(p)) >= s.fsBlock)
			return s.readMissed(file, c, si, p, off, snap, b, f, got, sp)
		}
		s.m.lookup(si, true)
		sp.Add(obs.CrumbCacheHit, 1)
		if b++; b > last {
			return nil
		}
		si = s.cache.shardIndex(blockKey{file, b})
	}
}

// readMissed goes on with readAt's cache pass from block b, its first
// miss, in shard si, which the pass claimed as got with fill f, and
// fetches what the pass misses under the close guard of the request's
// cell c. From the first miss on, a hit is pinned, not copied, so that a
// span can read it into p along with the misses around it, and it is
// copied from its frame after the fetch only if no span did; a miss is
// claimed for the fetch, up to the first block another reader is filling,
// and left for after the wait from there on (fetchMissing). A claim is
// held only under the guard, so that no reader waits for it on a guard
// that Close holds.
func (s *Server) readMissed(file int, c *shardCell, si int, p []byte, off int64, snap *sion.Layout, b int64, f fill, got claim, sp *obs.Span) error {
	if err := s.guardFetch(c); err != nil {
		if f.e != nil {
			s.cache.abort(f.e)
		}
		return err
	}
	defer c.guard.RUnlock()
	bs := s.blockBytes
	sc := getMissScratch()
	defer sc.done(p, off, bs)
	var cost missCost
	for last := (off + int64(len(p)) - 1) / bs; ; {
		switch got {
		case claimPinned:
			s.m.lookup(si, true)
			sp.Add(obs.CrumbCacheHit, 1)
			sc.pinned = append(sc.pinned, pinnedBlock{block: b, e: f.e, src: f.dst})
		case claimWait: // another reader fills it, or it missed after one that does
			s.m.lookup(si, false)
			sp.Add(obs.CrumbCacheMiss, 1)
			sc.missed = append(sc.missed, b)
		default:
			s.m.lookup(si, false)
			sp.Add(obs.CrumbCacheMiss, 1)
			sc.add(b, f, got, &cost)
		}
		if b++; b > last {
			break
		}
		si = s.cache.shardIndex(blockKey{file, b})
		if len(sc.missed) == 0 {
			f, got = s.visit(snap, si, file, p, off, b, true)
			continue
		}
		dst, from := blockWindow(p, off, b, bs)
		if e, src := s.cache.pin(si, blockKey{file, b}, dst, from); e != nil {
			f, got = fill{e, src, from}, claimPinned
		} else {
			got = claimWait
		}
	}
	err := s.fetchMissing(file, c, sc, snap, p, off, &cost)
	sp.Add(obs.CrumbBackendRead, cost.spans)
	sp.Add(obs.CrumbPeerFill, cost.peerFills)
	sp.Add(obs.CrumbFlightHit, cost.flightHits)
	sp.Add(obs.CrumbReadAround, cost.readAround)
	sp.Add(obs.CrumbRetry, cost.retries)
	return err
}

// visit settles block b of the window [off, off+len(p)) of physical file
// `file`, in shard si, in one visit of the shard (acquire), a miss's fill
// capped at the block's committed end in snap.
func (s *Server) visit(snap *sion.Layout, si, file int, p []byte, off, b int64, pin bool) (fill, claim) {
	dst, from := blockWindow(p, off, b, s.blockBytes)
	base, top := s.bounds(snap, file, b)
	return s.cache.acquire(si, blockKey{file, b}, dst, from, base, top, s.blockBytes, int64(len(p)) >= s.fsBlock, pin)
}

// bounds returns where block b of physical file `file` starts in the file,
// and where the block's committed bytes in snap end, from its start.
func (s *Server) bounds(snap *sion.Layout, file int, b int64) (base, top int64) {
	bs := s.blockBytes
	base = b*bs - s.shift[file]
	return base, snap.StableEnd(file, base, base+bs) - base
}

// guardFetch takes c's close guard for a fetch, without waiting: it fails
// with ErrServerClosed if Close holds the guard or waits for it, or has
// closed the server.
func (s *Server) guardFetch(c *shardCell) error {
	if c.guard.TryRLock() {
		if !s.closed.Load() {
			return nil
		}
		c.guard.RUnlock()
	}
	return fmt.Errorf("serve: %s: %w", s.name, ErrServerClosed)
}

// blockWindow returns the part of the request window p = [off, off+len(p))
// that cache block b covers, and the offset in the block where it starts.
func blockWindow(p []byte, off, b, bs int64) (dst []byte, from int64) {
	lo, hi := max(off, b*bs), min(off+int64(len(p)), (b+1)*bs)
	return p[lo-off : hi-off], lo - b*bs
}

// Handle is one client's read session over a rank's logical file. A
// Handle is cheap (no backend state) and implements io.Reader, io.Seeker,
// and sion.LogicalReaderAt. It reads the snapshot it was given, or its
// server's current one (Open): on a live server it sees every Poll without
// being reopened, and returns sion.ErrAgain at the committed frontier.
// ReadLogicalAt, LogicalSize, and KeyReader are stateless and safe for
// concurrent use even on one Handle; Read and Seek share the cursor and
// belong to a single goroutine — concurrent clients each Open their own
// Handle.
type Handle struct {
	r    FileReaderAt
	snap *atomic.Pointer[sion.Layout]
	span *obs.Span // attached request span (nil = no tracing)
	rank int
	pos  int64
}

var (
	_ io.Reader            = (*Handle)(nil)
	_ io.Seeker            = (*Handle)(nil)
	_ sion.LogicalReaderAt = (*Handle)(nil)
)

// NewHandle builds a read session on writer rank `rank` of the given
// layout snapshot, reading through r — any FileReaderAt, e.g. a cluster
// router. It issues no backend request.
func NewHandle(layout *sion.Layout, rank int, r FileReaderAt) (*Handle, error) {
	snap := new(atomic.Pointer[sion.Layout])
	snap.Store(layout)
	return newHandle(snap, rank, r)
}

func newHandle(snap *atomic.Pointer[sion.Layout], rank int, r FileReaderAt) (*Handle, error) {
	if l := snap.Load(); rank < 0 || rank >= l.NTasks() {
		return nil, fmt.Errorf("serve: %s: rank %d outside 0..%d", l.Name(), rank, l.NTasks()-1)
	}
	return &Handle{r: r, snap: snap, rank: rank}, nil
}

// SetSpan attaches a request span to the handle: subsequent reads record
// their breadcrumbs (cache hits, backend reads, peer fills, retries) on
// sp. SetSpan(nil) detaches. Like Read/Seek, the span belongs to the
// handle's goroutine; the HTTP front end (internal/httpapi) attaches the
// per-request span right after Open.
func (h *Handle) SetSpan(sp *obs.Span) { h.span = sp }

// Open starts a read session on the logical file of writer rank `rank`,
// which reads the server's current snapshot (Layout) at every call. No
// backend request is issued.
func (s *Server) Open(rank int) (*Handle, error) {
	h, err := newHandle(&s.snap, rank, s)
	if err != nil {
		return nil, err
	}
	s.m.handles.Inc()
	return h, nil
}

// LogicalSize returns the committed bytes of the rank's logical file.
func (h *Handle) LogicalSize() int64 { return h.snap.Load().RankSize(h.rank) }

// ReadLogicalAt fills p from the rank's logical stream starting at off,
// spanning blocks as needed, without moving the cursor. A short read ends
// in io.EOF past the end of a final snapshot and in sion.ErrAgain at a
// live one's frontier (sion.LogicalReaderAt semantics).
func (h *Handle) ReadLogicalAt(p []byte, off int64) (int, error) {
	return h.snap.Load().ReadRankAt(h.rank, p, off, func(file int, p []byte, off int64) error {
		return h.r.ReadFileAt(file, p, off, h.span)
	})
}

// Read fills p from the cursor and advances it (io.Reader). It returns
// io.EOF only once the stream is exhausted, like (*sion.File).Read, and
// sion.ErrAgain only at a live frontier with nothing read.
func (h *Handle) Read(p []byte) (int, error) {
	n, err := h.ReadLogicalAt(p, h.pos)
	h.pos += int64(n)
	if n > 0 && (err == io.EOF || err == sion.ErrAgain) {
		err = nil
	}
	return n, err
}

// Seek positions the cursor in the logical stream (io.Seeker).
func (h *Handle) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = h.pos + offset
	case io.SeekEnd:
		abs = h.LogicalSize() + offset
	default:
		return 0, fmt.Errorf("serve: Seek: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("serve: Seek: negative position %d", abs)
	}
	h.pos = abs
	return abs, nil
}

// KeyReader indexes the rank's key-value records (sion.NewKeyReaderFrom)
// through the cache: the index scan and every later record read are
// ordinary cached block accesses, so concurrent clients indexing the same
// rank share the underlying backend reads.
func (h *Handle) KeyReader() (*sion.KeyReader, error) {
	return sion.NewKeyReaderFrom(h)
}
