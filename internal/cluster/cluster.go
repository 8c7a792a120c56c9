// Package cluster scales the read-serving tier (internal/serve)
// horizontally: a Cluster is a router that consistent-hashes
// (physical file, granule) across N serve nodes on a hash ring and lets
// nodes fill their caches from each other before falling back to the
// backend — so a block is read from the file system once per cluster, not
// once per node. This is the aggregator/broadcast structure of
// collective-buffering models (Zhang et al., arXiv:0901.0134) and CkIO's
// over-decomposed reader layer (arXiv:2411.18593) applied to the serving
// tier: the tab6 zipfian workload that melts one node spreads across the
// ring, and the working set is cached once cluster-wide instead of once
// per node.
//
// The ownership rule: a granule is the unit of placement, a run is the
// unit of routing, a block stays the unit of caching. A granule is
// granuleBytes (256 KiB) of consecutive cache blocks of one physical
// file; a run is the part of one request that falls inside one granule.
// Granules and blocks lie on the file's chunk grid: its origin is the
// file's first chunk, not byte 0 (sion.Layout.GridShift, from which serve
// lays its blocks too), so a window inside one chunk is one run when the
// chunk is a granule or a quarter of one, and no block belongs to two
// granules.
// The multifile keeps a task's data contiguous so that few large requests
// reach the file system; routing by run keeps it contiguous on the way
// there — a node that misses sees all of a run's blocks in one fetch and
// fuses them into one backend span.
//
// Three mechanisms do the work:
//
//   - Consistent-hash routing (ring.go): every granule has a primary node
//     and a deterministic successor order. A node joining or leaving
//     remaps only the granules adjacent to its ring points, so the
//     surviving caches stay hot across membership churn.
//   - Peer cache fill: when a read misses on a node, the node's
//     serve.Config.PeerFill hook asks the other nodes' Peek (a passive
//     cache-only lookup that copies a resident range into the asker's
//     buffer), in the granule's ring order, before the reader touches the
//     backend. A block that any node already holds spreads through the
//     cluster without another backend read. Only nodes that may hold the
//     block are asked: each node records the granules it was routed
//     (Node.routed), and a node's cache takes blocks only from the runs
//     the router hands it, so a node never routed the block's granule
//     cannot hold it. On a static ring that is every peer, and a miss
//     asks no one: until a node joins a ring that has served a read, or a
//     run goes to a node other than its primary (Cluster.stirred), a miss
//     reads no peer state but that one flag. Reads racing a Join may miss
//     a peer's copy of a block and read the backend; reads that start
//     after it returns do not.
//   - Failure routing: nodes expose their breaker state (serve.Health,
//     serve.Degraded); the router tries healthy replicas first and fails
//     a whole run over past open-circuit, closed, or transiently failing
//     nodes. Only when every replica is down does a read fail, with a
//     typed serve.ErrDegraded so front ends can answer 503 + Retry-After.
//
// Clients call Open and get an ordinary serve.Handle (Read, Seek,
// ReadLogicalAt, KeyReader): the Handle reads through the Cluster's
// FileReaderAt, which makes one node call per run. All methods are safe
// for concurrent use.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/serve"
)

// ErrNoNodes is returned (wrapped) by reads routed while the cluster has
// no serving nodes (never joined, or every node has left).
var ErrNoNodes = errors.New("cluster: no serving nodes")

// ErrClusterClosed is returned (wrapped) by operations after Close.
var ErrClusterClosed = errors.New("cluster: cluster is closed")

// Node is one serve instance on the ring.
type Node struct {
	ID  string
	srv *serve.Server

	// routed records the granules the router has handed this node runs of:
	// bit granuleHash%(64·routedWords), set before each node call. alone
	// records that it served a one-node view, whose windows cut no
	// granule. Blocks enter the node's cache only through those calls (a
	// peer-filled block too), so the node holds a block of granule g only
	// if g's bit or alone is set, and peerFill asks no other node. Bits
	// are never cleared: a colliding or stale bit costs one Peek.
	routed [routedWords]atomic.Uint64
	alone  atomic.Bool
}

// routedWords sizes Node.routed: 16 Ki bits, 2 KiB a node, so that few
// granules of a large multifile share a bit.
const routedWords = 256

// route records, before n is handed a run of the granule at ring position
// key, that n may from now on hold its blocks. The word is written only
// the first time: a routed granule costs one load.
func (n *Node) route(key uint64) {
	w, bit := n.routedBit(key)
	for old := w.Load(); old&bit == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// mayHold reports whether n may hold a block of the granule at ring
// position key.
func (n *Node) mayHold(key uint64) bool {
	w, bit := n.routedBit(key)
	return n.alone.Load() || w.Load()&bit != 0
}

// routedBit is the word of Node.routed, and the bit in it, that record the
// granule at ring position key.
func (n *Node) routedBit(key uint64) (*atomic.Uint64, uint64) {
	return &n.routed[key/64%routedWords], 1 << (key % 64)
}

// view is one routing snapshot: the membership, its ring and what the
// first Join fixed. It is immutable once published.
type view struct {
	closed        bool
	name          string // multifile base name (set by the first Join)
	layout        *sion.Layout
	blockBytes    int64
	granuleBlocks int64   // blocks per granule, fixed with blockBytes by the first Join
	shift         []int64 // per physical file: where its granule grid starts before byte 0 (sion.Layout.GridShift)
	nodes         []*Node // sorted by ID
	ring          *ring
}

// Cluster routes reads across serve nodes on a consistent-hash ring. See
// the package documentation for the mechanism.
type Cluster struct {
	// Readers load view and take no lock; Join, Leave and Close publish a
	// new one under mu, which only orders them.
	mu   sync.Mutex
	view atomic.Pointer[view] // never nil

	// stirred records that some node may hold a block of a granule it is
	// not the primary of: a node joined a ring that had served a read, or
	// a run went to a node other than its primary. Until then no peer can
	// hold what a node misses, and peerFill returns after this one load.
	// It is set before the change can make such a block resident — before
	// the joined view is published, before the non-primary call — except
	// for a run routed on the view the Join replaces: that run's record
	// is found by the Join before it returns, or the run sees the new view
	// and sets the flag before its call. So reads that start after a Join
	// returns miss no peer block; reads racing it may read the backend
	// for one. It is never cleared.
	stirred atomic.Bool

	// askAll switches the routed-granule filter off (Node.mayHold): peer
	// fill asks every other node. The ablation table flips it.
	askAll bool

	// m holds the routing counters as obs instruments (Stats() reads
	// them); the same registry carries every node's serve families,
	// labeled node=<id>.
	m *clusterMetrics
}

var _ serve.FileReaderAt = (*Cluster)(nil)

// New builds an empty cluster; Join adds serve nodes to it. reg is the
// obs registry the cluster and every node joined to it register their
// instruments in (nil gives the cluster a private registry, reachable via
// Metrics()). Nodes' serve families are labeled node=<id>; the router's
// cluster_* families are unlabeled. Don't register unlabeled
// serve.Servers in the same registry — the family label-key check panics.
func New(reg *obs.Registry) *Cluster {
	c := &Cluster{}
	c.view.Store(&view{})
	c.m = newClusterMetrics(reg, c)
	return c
}

// Metrics returns the registry the cluster's (and its nodes')
// instruments live in.
func (c *Cluster) Metrics() *obs.Registry { return c.m.reg }

// Join opens the multifile `name` on fsys as a new serve node `id` and
// adds it to the ring. The node's serve.Config (nil for defaults) is
// taken over with two adjustments: its PeerFill hook is wired to the
// other nodes' caches, and its cache-block size is forced to the
// cluster's, which the first Join establishes together with the granule
// (placement and peer fill address blocks by number, so every node must
// agree). All nodes of one cluster must front the same multifile, and it
// must be closed: a multifile still being written is refused with an
// error wrapping sion.ErrAgain, and the refused node's instruments are
// withdrawn from the registry.
func (c *Cluster) Join(id string, fsys fsio.FileSystem, name string, scfg *serve.Config) (*Node, error) {
	// Check before serve.New, and hold mu across it: New registers the
	// node=<id> families, which would replace a live node's instruments
	// with those of a server this call then rejects. Readers never take
	// mu, so only membership changes wait on the open.
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	switch {
	case v.closed:
		return nil, fmt.Errorf("cluster: join %s: %w", id, ErrClusterClosed)
	case v.name != "" && name != v.name:
		return nil, fmt.Errorf("cluster: join %s: multifile %q differs from the cluster's %q", id, name, v.name)
	case len(v.nodes) == maxNodes:
		return nil, fmt.Errorf("cluster: join %s: the ring is full (%d nodes)", id, maxNodes)
	}
	for _, other := range v.nodes {
		if other.ID == id {
			return nil, fmt.Errorf("cluster: join %s: node id already on the ring", id)
		}
	}
	var cfg serve.Config
	if scfg != nil {
		cfg = *scfg
	}
	if v.blockBytes != 0 { // the first join's block size (its config's, or serve's default) stands
		cfg.BlockBytes = v.blockBytes
	}
	cfg.PeerFill = func(file int, block int64, dst []byte, from int64) bool {
		return c.peerFill(id, file, block, dst, from)
	}
	// Every node's serve instruments land in the cluster's registry under
	// a node label, so one scrape covers the whole topology. (A node that
	// re-joins under a departed id restarts most of that id's counters:
	// the cache and miss-path families are read from the server's cells
	// at scrape time — the Prometheus restart semantics. Only the handle,
	// tail-poll and degraded counters are cumulative per label set and
	// resume.)
	cfg.Metrics = c.m.reg
	cfg.MetricLabels = obs.L("node", id)
	srv, err := serve.New(fsys, name, &cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: join %s: %w", id, err)
	}
	if !srv.Layout().Final() {
		srv.Close()
		c.m.reg.Unregister(cfg.MetricLabels...)
		return nil, fmt.Errorf("cluster: join %s: %s is still being written: %w", id, name, sion.ErrAgain)
	}
	n := &Node{ID: id, srv: srv}
	nv := *v
	if nv.name == "" {
		nv.name, nv.layout, nv.blockBytes = name, srv.Layout(), srv.BlockBytes()
		nv.granuleBlocks = max(1, granuleBytes/nv.blockBytes)
		nv.shift = nv.layout.GridShift(nv.granuleBlocks * nv.blockBytes)
	}
	nodes := append(append(make([]*Node, 0, len(v.nodes)+1), v.nodes...), n)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	// Granules move to n from nodes that may hold their blocks. A reader
	// of the old view records its run before it looks whether the view
	// is still current (readRun), so a record this second look misses
	// belongs to a reader that sees the new view and stirs the ring
	// itself.
	if handedRuns(v.nodes) {
		c.stirred.Store(true)
	}
	c.publish(&nv, nodes)
	if !c.stirred.Load() && handedRuns(v.nodes) {
		c.stirred.Store(true)
	}
	return n, nil
}

// handedRuns reports whether any of nodes was ever handed a run. (A node that
// leaves takes its blocks along and moves no granule to a node that holds
// any: Leave does not stir the ring.)
func handedRuns(nodes []*Node) bool {
	for _, n := range nodes {
		if n.alone.Load() {
			return true
		}
		for i := range n.routed {
			if n.routed[i].Load() != 0 {
				return true
			}
		}
	}
	return false
}

// Leave removes node `id` from the ring and closes its serve instance.
// Granules whose primary departs remap to their ring successors; reads that
// raced the departure fail over the same way they fail over a degraded
// node, so serving continues uninterrupted as long as one node remains.
func (c *Cluster) Leave(id string) error {
	c.mu.Lock()
	v := c.view.Load()
	if v.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: leave %s: %w", id, ErrClusterClosed)
	}
	var gone *Node
	nodes := make([]*Node, 0, len(v.nodes))
	for _, n := range v.nodes {
		if n.ID == id {
			gone = n
			continue
		}
		nodes = append(nodes, n)
	}
	if gone == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: leave %s: no such node", id)
	}
	nv := *v
	c.publish(&nv, nodes)
	c.mu.Unlock()
	return gone.srv.Close()
}

// publish makes v, with membership nodes and the ring built from it, the
// snapshot readers load (the caller holds mu). Point positions depend only
// on node ids, so the same membership always yields the same ring
// regardless of join order.
func (c *Cluster) publish(v *view, nodes []*Node) {
	v.nodes, v.ring = nodes, buildRing(nodeIDs(nodes))
	c.view.Store(v)
}

func nodeIDs(nodes []*Node) []string {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}

// Close shuts down every node. It is idempotent; reads issued after Close
// fail with ErrClusterClosed.
func (c *Cluster) Close() error {
	c.mu.Lock()
	v := c.view.Load()
	if v.closed {
		c.mu.Unlock()
		return nil
	}
	nv := *v
	nv.closed, nv.nodes, nv.ring = true, nil, nil
	c.view.Store(&nv)
	c.mu.Unlock()
	var firstErr error
	for _, n := range v.nodes {
		if err := n.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Layout returns the multifile layout (nil before the first Join).
func (c *Cluster) Layout() *sion.Layout { return c.view.Load().layout }

// BlockBytes returns the cluster's cache-block size (0 before the first
// Join).
func (c *Cluster) BlockBytes() int64 { return c.view.Load().blockBytes }

// NodeIDs lists the current membership, sorted.
func (c *Cluster) NodeIDs() []string { return nodeIDs(c.view.Load().nodes) }

// Open starts a read session on the logical file of writer rank `rank`.
// The returned Handle carries the full serve.Handle semantics (Read,
// Seek, ReadLogicalAt, KeyReader); every read it makes is routed through
// the ring, one node call per run.
func (c *Cluster) Open(rank int) (*serve.Handle, error) {
	v := c.view.Load()
	if v.closed {
		return nil, fmt.Errorf("cluster: open rank %d: %w", rank, ErrClusterClosed)
	}
	if v.layout == nil {
		return nil, fmt.Errorf("cluster: open rank %d: %w", rank, ErrNoNodes)
	}
	h, err := serve.NewHandle(v.layout, rank, c)
	if err != nil {
		return nil, err
	}
	c.m.handles.Inc()
	return h, nil
}

// gridShift is file's granule-grid shift, 0 for a file outside the
// multifile (the node the run goes to reports it).
func (v *view) gridShift(file int) int64 {
	if file < 0 || file >= len(v.shift) {
		return 0
	}
	return v.shift[file]
}

// peerFill answers a reader that missed on node selfID: scan the caches
// of the other nodes that may hold the block (Node.mayHold), in ring
// order for the block's granule, most likely holders first, for bytes
// [from, from+len(dst)) of the block and copy them into dst, without
// triggering any fetch. With no such peer it returns at once: no ring
// lookup, no Peek. This is the hook behind serve.Config.PeerFill.
func (c *Cluster) peerFill(selfID string, file int, block int64, dst []byte, from int64) bool {
	if !c.stirred.Load() { // a static ring: no peer holds a block of the granule
		return false
	}
	v := c.view.Load()
	if len(v.nodes) < 2 { // no peer to ask
		return false
	}
	// Both grids are the layout's (GridShift), and serve's shift is this
	// one mod the block: block b starts shift/bs blocks into granule 0.
	key := granuleHash(file, (block+v.gridShift(file)/v.blockBytes)/v.granuleBlocks)
	var may uint64 // the peers that may hold the block, by node index
	for i, n := range v.nodes {
		if n.ID != selfID && (c.askAll || n.mayHold(key)) {
			may |= 1 << uint(i)
		}
	}
	if may == 0 {
		return false
	}
	var buf [maxNodes]int
	for _, ni := range v.ring.lookup(key, &buf) {
		if may&(1<<uint(ni)) == 0 {
			continue
		}
		c.m.probes.Inc()
		if v.nodes[ni].srv.Peek(file, block, dst, from) {
			return true
		}
	}
	return false
}

// ReadFileAt routes [off, off+len(p)) of physical file `file` across the
// ring run by run: the window is cut at granule boundaries, and each run
// is one node call to its granule's primary, failing over as a whole
// along the ring past degraded, closed, or transiently failing nodes. It
// fails with a typed serve.ErrDegraded only when every replica of a run
// is down; a permanent error (the backend answering wrongly) is returned
// as-is, since every node would fail identically. sp (nil is fine)
// records each failover hop, and the node that serves each run records
// its cache/backend crumbs on the same span (see serve.Server.ReadFileAt).
//
// A one-node view has nothing to place: the whole window is one run, with
// no ring lookup and no granule cut, so the node sees every request
// exactly as a lone serve.Server would.
func (c *Cluster) ReadFileAt(file int, p []byte, off int64, sp *obs.Span) error {
	v := c.view.Load()
	if v.closed {
		return fmt.Errorf("cluster: %s: %w", v.name, ErrClusterClosed)
	}
	if len(v.nodes) == 0 {
		return fmt.Errorf("cluster: %s: %w", v.name, ErrNoNodes)
	}
	if off < 0 {
		return fmt.Errorf("cluster: %s: negative physical offset %d", v.name, off)
	}
	if len(v.nodes) == 1 && len(p) > 0 {
		return c.readRun(v, file, 0, []int{0}, p, off, sp)
	}
	gbytes, shift := v.granuleBlocks*v.blockBytes, v.gridShift(file)
	var buf [maxNodes]int
	for len(p) > 0 {
		granule := (off + shift) / gbytes
		end := min(off+int64(len(p)), (granule+1)*gbytes-shift)
		key := granuleHash(file, granule)
		if err := c.readRun(v, file, key, v.ring.lookup(key, &buf), p[:end-off], off, sp); err != nil {
			return err
		}
		p, off = p[end-off:], end
	}
	return nil
}

// readRun serves one run — a window inside one granule — with one node
// call, failing the whole run over along cands, the granule's candidate
// order (the primary first). key is the granule's ring position; a
// one-node view's window is cut by no granule and has none.
func (c *Cluster) readRun(v *view, file int, key uint64, cands []int, p []byte, off int64, sp *obs.Span) error {
	c.m.requests[cands[0]].Inc() // the primary's cell
	// Healthy replicas first: a node with any open circuit is tried in the
	// second pass (its cache may still answer, but it must not absorb
	// primary load).
	var lastErr error
	var tried uint64
	attempts := int64(0)
	for pass := 0; pass < 2; pass++ {
		for _, ni := range cands {
			n := v.nodes[ni]
			if tried&(1<<uint(ni)) != 0 || (pass == 0 && n.srv.Degraded()) {
				continue
			}
			tried |= 1 << uint(ni)
			// Record the run before the call can make a block resident, so
			// a peerFill that finds the record clear knows the node holds
			// no block of the granule. A run off its primary stirs the
			// ring, and so does one routed on a view since replaced: a
			// Join may have looked for records before this one.
			if len(v.nodes) == 1 {
				if !n.alone.Load() {
					n.alone.Store(true)
				}
			} else {
				n.route(key)
			}
			if !c.stirred.Load() && (ni != cands[0] || c.view.Load() != v) {
				c.stirred.Store(true)
			}
			err := n.srv.ReadFileAt(file, p, off, sp)
			if err == nil {
				if attempts > 0 {
					c.m.failovers.Add(attempts)
					sp.Add(obs.CrumbFailover, attempts)
				}
				return nil
			}
			if !failoverWorthy(err) {
				return err
			}
			lastErr = err
			attempts++
		}
	}
	c.m.allDown.Inc()
	return fmt.Errorf("cluster: %s: file %d bytes [%d, %d): all %d replicas down (last: %v): %w",
		v.name, file, off, off+int64(len(p)), len(cands), lastErr, serve.ErrDegraded)
}

// failoverWorthy reports whether another replica might answer where this
// node did not: open circuits, closed (departed) nodes, and transient
// backend faults fail over; permanent errors are the backend answering
// and would repeat identically on every node.
func failoverWorthy(err error) bool {
	return errors.Is(err, serve.ErrDegraded) ||
		errors.Is(err, serve.ErrServerClosed) ||
		resil.Classify(err) == resil.ClassTransient
}

// NodeStats is one node's identity and serve counters.
type NodeStats struct {
	ID       string
	Degraded bool
	Serve    serve.Stats
}

// Stats is a snapshot of the cluster's routing counters plus the
// element-wise sum (and per-node breakdown) of the nodes' serve stats.
type Stats struct {
	Nodes           int
	Requests        int64 // runs routed (one node call each, failover aside)
	Failovers       int64 // extra replica attempts after a failed one
	AllReplicasDown int64 // reads that exhausted every replica
	PeerProbes      int64 // Peeks peer fill issued, each to a node that may hold the block
	// Serve sums the nodes' serve stats, except HandlesOpened: clients open
	// their sessions on the router, so that is the router's count.
	Serve   serve.Stats
	PerNode []NodeStats
}

// Stats returns a snapshot of the routing and node counters.
func (c *Cluster) Stats() Stats {
	nodes := c.view.Load().nodes
	st := Stats{
		Nodes:           len(nodes),
		Requests:        c.m.routed(),
		Failovers:       c.m.failovers.Value(),
		AllReplicasDown: c.m.allDown.Value(),
		PeerProbes:      c.m.probes.Value(),
		Serve:           serve.Stats{HandlesOpened: c.m.handles.Value()},
	}
	for _, n := range nodes {
		ns := NodeStats{ID: n.ID, Degraded: n.srv.Degraded(), Serve: n.srv.Stats()}
		st.Serve = addStats(st.Serve, ns.Serve)
		st.PerNode = append(st.PerNode, ns)
	}
	return st
}

// addStats sums two serve stat snapshots element-wise, keeping a's
// HandlesOpened (the router's count).
func addStats(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Hits:          a.Hits + b.Hits,
		Misses:        a.Misses + b.Misses,
		FlightHits:    a.FlightHits + b.FlightHits,
		BackendReads:  a.BackendReads + b.BackendReads,
		BackendBytes:  a.BackendBytes + b.BackendBytes,
		ServedBytes:   a.ServedBytes + b.ServedBytes,
		Evictions:     a.Evictions + b.Evictions,
		ReadAround:    a.ReadAround + b.ReadAround,
		CachedBytes:   a.CachedBytes + b.CachedBytes,
		HandlesOpened: a.HandlesOpened,
		TailPolls:     a.TailPolls + b.TailPolls,
		PeerFills:     a.PeerFills + b.PeerFills,
		Retries:       a.Retries + b.Retries,
		GiveUps:       a.GiveUps + b.GiveUps,
		Degraded:      a.Degraded + b.Degraded,
		BreakerOpens:  a.BreakerOpens + b.BreakerOpens,
	}
}

// NodeHealth is one node's breaker condition, the substance of the HTTP
// API's /healthz endpoint.
type NodeHealth struct {
	ID       string             `json:"id"`
	Degraded bool               `json:"degraded"`
	Files    []serve.FileHealth `json:"files"`
}

// Health reports every node's per-physical-file breaker state.
func (c *Cluster) Health() []NodeHealth {
	nodes := c.view.Load().nodes
	out := make([]NodeHealth, len(nodes))
	for i, n := range nodes {
		out[i] = NodeHealth{ID: n.ID, Degraded: n.srv.Degraded(), Files: n.srv.Health()}
	}
	return out
}

// Degraded reports whether the whole cluster is refusing backend work:
// true only when every node (or no node) is serving degraded. While any
// node is healthy the router can route around the rest.
func (c *Cluster) Degraded() bool {
	nodes := c.view.Load().nodes
	if len(nodes) == 0 {
		return true
	}
	for _, n := range nodes {
		if !n.srv.Degraded() {
			return false
		}
	}
	return true
}
