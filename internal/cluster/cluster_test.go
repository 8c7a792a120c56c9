package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/simfs"
)

// testPayload is the deterministic per-rank payload used across the tests
// (same generator as the serve tests, so cross-package results line up).
func testPayload(rank, size int) []byte {
	out := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// The test multifile: 4 KiB FS blocks (so 32 KiB default cache blocks, 8
// to a granule) and 256 KiB chunks, ~2.3 chunks per task, so that a
// handful of tasks already spread over a dozen granules per physical file
// — placement, remapping and failover then have something to act on.
// testCache holds all of it on any one node.
const (
	testBlock = 4096
	testChunk = 256 << 10
	testCache = 8 << 20
)

// writeMultifile writes an n-task multifile (two physical files) and
// returns each rank's payload.
func writeMultifile(t testing.TB, fsys fsio.FileSystem, name string, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for r := range payloads {
		payloads[r] = testPayload(r, 600000+37*r)
	}
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{
			ChunkSize: testChunk, FSBlockSize: testBlock, NFiles: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(payloads[c.Rank()]); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	return payloads
}

// flakies returns n fault injectors: each cluster node wraps the shared
// backend in its own, so one node's path can fail while its peers' stay
// healthy.
func flakies(n int) []*simfs.Flaky {
	fls := make([]*simfs.Flaky, n)
	for i := range fls {
		fls[i] = simfs.NewFlaky(simfs.FlakyConfig{})
	}
	return fls
}

var (
	errTransientFault = fmt.Errorf("cluster test: injected fault: %w", fsio.ErrTransient)
	errPermanentFault = errors.New("cluster test: permanent backend fault")
)

// failReads is a rule that fails every backend read with err: transient
// (fsio error contract) or permanent.
func failReads(err error) func(simfs.FlakyOp) error {
	return func(op simfs.FlakyOp) error {
		if strings.HasPrefix(op.Op, "Read") {
			return err
		}
		return nil
	}
}

// checkRank reads rank r's full stream through the cluster and compares.
func checkRank(t *testing.T, cl *Cluster, r int, want []byte) {
	t.Helper()
	h, err := cl.Open(r)
	if err != nil {
		t.Fatalf("rank %d: Open: %v", r, err)
	}
	got := make([]byte, len(want))
	if _, err := h.ReadLogicalAt(got, 0); err != nil {
		t.Fatalf("rank %d: ReadLogicalAt: %v", r, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rank %d: bytes differ through the cluster", r)
	}
}

// TestClusterByteIdentity pins the basic contract: a 3-node cluster
// serves every rank's stream byte-identically, full reads and unaligned
// windows alike, and the routing counters move.
func TestClusterByteIdentity(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "c.sion", 8)
	cl := New(nil)
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Join(fmt.Sprintf("n%d", i), fsys, "c.sion", &serve.Config{CacheBytes: testCache}); err != nil {
			t.Fatal(err)
		}
	}
	for r, want := range payloads {
		checkRank(t, cl, r, want)
	}
	// Unaligned windows through a handle cursor.
	h, err := cl.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads[3]
	for _, off := range []int64{1, 255, 256, 1000, testBlock - 1, testChunk - 50, int64(len(want)) - 7} {
		buf := make([]byte, 131)
		n, err := h.ReadLogicalAt(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("offset %d: %v", off, err)
		}
		if n == 0 || !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
			t.Fatalf("offset %d: window differs (%d bytes)", off, n)
		}
	}
	st := cl.Stats()
	if st.Nodes != 3 || st.Requests == 0 || st.Serve.BackendReads == 0 || st.Serve.HandlesOpened == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.AllReplicasDown != 0 {
		t.Fatalf("healthy cluster counted %d all-replicas-down reads", st.AllReplicasDown)
	}
	if len(cl.Health()) != 3 || cl.Degraded() {
		t.Fatalf("healthy 3-node cluster reports degraded health: %+v", cl.Health())
	}
}

// TestClusterJoinPeerFillsRemappedBlocks pins the cluster's headline
// economics: after the working set is cached once cluster-wide, a new
// node joining takes over ~1/N of the granules and warms their blocks
// from the old primaries' caches — zero new backend reads.
func TestClusterJoinPeerFillsRemappedBlocks(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "j.sion", 8)
	cl := New(nil)
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Join(fmt.Sprintf("n%d", i), fsys, "j.sion", &serve.Config{CacheBytes: testCache}); err != nil {
			t.Fatal(err)
		}
	}
	for r, want := range payloads {
		checkRank(t, cl, r, want)
	}
	warm := cl.Stats().Serve
	if warm.BackendReads == 0 {
		t.Fatal("warm-up issued no backend reads")
	}

	if _, err := cl.Join("n9", fsys, "j.sion", &serve.Config{CacheBytes: testCache}); err != nil {
		t.Fatal(err)
	}
	for r, want := range payloads {
		checkRank(t, cl, r, want)
	}
	after := cl.Stats().Serve
	if after.BackendReads != warm.BackendReads {
		t.Fatalf("join forced %d extra backend reads (%d -> %d): remapped blocks must peer-fill",
			after.BackendReads-warm.BackendReads, warm.BackendReads, after.BackendReads)
	}
	if after.PeerFills == 0 {
		t.Fatal("no peer fills counted after a join remapped blocks")
	}
}

// TestClusterPeerFillsReadAroundBlocks: a node whose small cache is full
// reads the blocks of a large window it declines around it, and a peer
// that holds them fills them into the caller's window — byte-identical,
// still no backend read.
func TestClusterPeerFillsReadAroundBlocks(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "a.sion", 8)
	cl := New(nil)
	defer cl.Close()
	if _, err := cl.Join("n0", fsys, "a.sion", &serve.Config{CacheBytes: testCache}); err != nil {
		t.Fatal(err)
	}
	for r, want := range payloads {
		checkRank(t, cl, r, want)
	}
	small, err := cl.Join("n9", fsys, "a.sion", &serve.Config{CacheBytes: 64 << 10}) // four blocks
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range payloads {
		checkRank(t, cl, r, want)
	}
	st := small.srv.Stats()
	if st.ReadAround == 0 || st.PeerFills < st.ReadAround || st.BackendReads != 0 {
		t.Fatalf("n9 with a full cache: %d blocks read around, %d peer fills, %d backend reads; "+
			"want every read-around block filled from n0", st.ReadAround, st.PeerFills, st.BackendReads)
	}
}

// TestClusterStaticRingNeverProbes: on a static ring a node is routed only
// its own granules, so a miss has no peer that could hold the block and
// peer fill asks none, however often the caches turn over: the ring is
// not stirred, and a miss reads no peer state past that one flag. A join
// remaps granules whose blocks sit in their old primaries' caches: it
// stirs the ring, and those are asked, and fill.
func TestClusterStaticRingNeverProbes(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 8)
	cfg := serve.Config{CacheBytes: 1 << 20} // a node's share of the data is about 1.6 MiB
	cl := startCluster(t, 3, "s.sion", func(int) fsio.FileSystem { return fsys }, cfg)
	scan := func() {
		for r, want := range payloads {
			checkRank(t, cl, r, want)
		}
	}
	scan()
	first := cl.Stats().Serve
	scan()
	st := cl.Stats()
	if st.Serve.Misses == first.Misses {
		t.Fatalf("the second scan missed nothing: %+v", st.Serve)
	}
	if st.PeerProbes != 0 || st.Serve.PeerFills != 0 || cl.stirred.Load() {
		t.Fatalf("static ring: %d peer probes, %d peer fills, stirred %v; want none, quiet", st.PeerProbes, st.Serve.PeerFills, cl.stirred.Load())
	}

	if _, err := cl.Join("n9", fsys, "s.sion", &cfg); err != nil {
		t.Fatal(err)
	}
	for r := len(payloads) - 1; r >= 0; r-- { // the last scan's blocks first: those are still resident
		checkRank(t, cl, r, payloads[r])
	}
	if st := cl.Stats(); st.PeerProbes == 0 || st.Serve.PeerFills == 0 || !cl.stirred.Load() {
		t.Fatalf("after a join: %d peer probes, %d peer fills; want remapped blocks asked of their old primaries",
			st.PeerProbes, st.Serve.PeerFills)
	}
}

// TestRunOnAReplacedViewStirs: a reader that loaded the view before a Join
// and routes its run only after the Join looked for routed granules makes
// a block resident on the granule's old primary. The run sees its view
// replaced and stirs the ring, so a miss on the new primary asks the old
// one and fills.
func TestRunOnAReplacedViewStirs(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(t, fsys, "j.sion", 8)
	cfg := serve.Config{CacheBytes: 1 << 20}
	cl := startCluster(t, 3, "j.sion", func(int) fsio.FileSystem { return fsys }, cfg)
	old := cl.view.Load()
	if _, err := cl.Join("n9", fsys, "j.sion", &cfg); err != nil {
		t.Fatal(err)
	}
	if cl.stirred.Load() {
		t.Fatal("a join before any read stirred the ring")
	}
	data, cur := physFile(t, dir, cl, 0), cl.view.Load()
	var buf [maxNodes]int
	for g := int64(1); granuleOff(cl, 0, g+1) <= int64(len(data)); g++ {
		key := granuleHash(0, g)
		if cur.nodes[cur.ring.lookup(key, &buf)[0]].ID != "n9" {
			continue
		}
		oldCands := old.ring.lookup(key, &buf) // the same array: the new primary is known
		off := granuleOff(cl, 0, g)
		p := make([]byte, 4096)
		if err := cl.readRun(old, 0, key, oldCands, p, off, nil); err != nil {
			t.Fatal(err)
		}
		if !cl.stirred.Load() {
			t.Fatal("a run routed on a replaced view left the ring quiet")
		}
		if err := cl.ReadFileAt(0, p, off, nil); err != nil || !bytes.Equal(p, data[off:off+4096]) {
			t.Fatalf("new primary: %v, or wrong bytes", err)
		}
		if st := cl.Stats(); st.Serve.PeerFills == 0 {
			t.Fatalf("new primary missed and did not fill from the old one: %+v", st)
		}
		return
	}
	t.Fatal("n9 took over no granule of file 0")
}

// TestRoutedSetSavesProbes is the routed-granule set's ablation: after a
// join stirs the ring, peer fill asks only the nodes routed the block's
// granule, and asking every node instead fills no more blocks for many
// more Peeks. (serving.golden's churn rows: ckpt-large's 938.5 peer
// probes per 1k requests were 8949.5 without the set, serve-cold's 147
// were 1011.5, at the same peer fills.)
func TestRoutedSetSavesProbes(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "a.sion", 8)
	churn := func(askAll bool) Stats {
		cfg := serve.Config{CacheBytes: 1 << 20}
		cl := startCluster(t, 3, "a.sion", func(int) fsio.FileSystem { return fsys }, cfg)
		cl.askAll = askAll
		for r, want := range payloads {
			checkRank(t, cl, r, want)
		}
		if _, err := cl.Join("n9", fsys, "a.sion", &cfg); err != nil {
			t.Fatal(err)
		}
		for r := len(payloads) - 1; r >= 0; r-- {
			checkRank(t, cl, r, payloads[r])
		}
		return cl.Stats()
	}
	set, all := churn(false), churn(true)
	if set.Serve.PeerFills == 0 || set.Serve.PeerFills != all.Serve.PeerFills || set.PeerProbes >= all.PeerProbes {
		t.Fatalf("peer fill after a join: %d fills for %d probes with the routed set, %d for %d asking every node; want the same fills for fewer probes",
			set.Serve.PeerFills, set.PeerProbes, all.Serve.PeerFills, all.PeerProbes)
	}
}

// TestClusterFailedOverBlocksFillTheRecoveredPrimary: the runs of a
// primary whose backend fails are served by its ring successor, which then
// holds the blocks. Once the primary's backend recovers and its breaker
// closes, the primary fills those blocks from the successor — zero backend
// reads. Peer fill finds them only because a failover attempt records its
// node as routed the granule, not the primary alone.
func TestClusterFailedOverBlocksFillTheRecoveredPrimary(t *testing.T) {
	dir := t.TempDir()
	inner := fsio.NewOS(dir)
	writeMultifile(t, inner, "v.sion", 8)
	faults := flakies(3)
	cl := startCluster(t, 3, "v.sion", func(i int) fsio.FileSystem { return faults[i].Wrap(inner, nil) },
		serve.Config{CacheBytes: testCache, Retry: &resil.Budget{MaxAttempts: 1}, BreakerThreshold: 1, BreakerCooldown: 1})
	phys := physFile(t, dir, cl, 0)

	sick := cl.view.Load().nodes[0] // "n0" reads through faults[0]
	var mine []int64                // the granules of file 0 it is the primary of
	for g := int64(1); granuleOff(cl, 0, g+1) <= int64(len(phys)); g++ {
		if candidatesOf(cl, 0, g)[0] == sick {
			mine = append(mine, g)
		}
	}
	if len(mine) < 2 {
		t.Fatalf("n0 is the primary of %d granules of file 0, want 2 or more", len(mine))
	}
	heal, mine := mine[len(mine)-1], mine[:len(mine)-1]

	faults[0].SetRule(failReads(errTransientFault))
	for _, g := range mine {
		readAt(t, cl, phys, 0, granuleOff(cl, 0, g), granuleBytes)
	}
	if served(cl)[sick.ID] != 0 || !sick.srv.Degraded() {
		t.Fatalf("n0 served %d bytes with its backend down (degraded %v), want none and an open circuit",
			served(cl)[sick.ID], sick.srv.Degraded())
	}

	// Recovery: the backend answers again, and the open circuit's cooldown
	// (one rejected fetch) and probe run on a granule outside the check,
	// read on the node directly, since the router routes around the node
	// while its circuit is open.
	faults[0].SetRule(nil)
	p := make([]byte, testBlock)
	for i := 0; i < 2; i++ {
		err := sick.srv.ReadFileAt(0, p, granuleOff(cl, 0, heal), nil)
		if (err == nil) != (i == 1) {
			t.Fatalf("recovery fetch %d: %v", i, err)
		}
	}
	if sick.srv.Degraded() {
		t.Fatal("n0's circuit did not close after a successful probe")
	}

	before := cl.Stats()
	for _, g := range mine {
		readAt(t, cl, phys, 0, granuleOff(cl, 0, g), granuleBytes)
	}
	st := cl.Stats()
	if d := served(cl)[sick.ID]; d != int64(len(mine))*granuleBytes+testBlock {
		t.Fatalf("recovered n0 served %d bytes, want its %d granules and the probe block", d, len(mine))
	}
	if st.Serve.BackendReads != before.Serve.BackendReads || st.Serve.PeerFills == before.Serve.PeerFills {
		t.Fatalf("recovered primary: %d new backend reads, %d new peer fills; want its blocks filled from the successor",
			st.Serve.BackendReads-before.Serve.BackendReads, st.Serve.PeerFills-before.Serve.PeerFills)
	}
}

// TestClusterFailoverRoutesAroundFaults pins failure routing: a node
// whose backend path fails transiently is failed over (the ring
// successor answers, byte-identically), while a permanent error is
// returned to the caller without burning the other replicas.
func TestClusterFailoverRoutesAroundFaults(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, inner, "f.sion", 8)
	sick := simfs.NewFlaky(simfs.FlakyConfig{})
	scfg := func() *serve.Config {
		return &serve.Config{CacheBytes: testCache, Retry: &resil.Budget{MaxAttempts: 1}}
	}
	cl := New(nil)
	defer cl.Close()
	if _, err := cl.Join("sick", sick.Wrap(inner, nil), "f.sion", scfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("well", inner, "f.sion", scfg()); err != nil {
		t.Fatal(err)
	}
	sick.SetRule(failReads(errTransientFault)) // every backend read on "sick" now fails transiently
	for r, want := range payloads {
		checkRank(t, cl, r, want) // must succeed via failover
	}
	st := cl.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers counted though one node's backend was down")
	}
	if st.AllReplicasDown != 0 {
		t.Fatalf("%d reads exhausted all replicas though one node was healthy", st.AllReplicasDown)
	}
}

// TestClusterPermanentErrorNoFailover pins the other half of the routing
// policy: a permanent backend error is the backend answering, so it is
// returned as-is instead of being retried on every replica.
func TestClusterPermanentErrorNoFailover(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	writeMultifile(t, inner, "p.sion", 4)
	bad := simfs.NewFlaky(simfs.FlakyConfig{})
	cl := New(nil)
	defer cl.Close()
	cfg := &serve.Config{CacheBytes: testCache, Retry: &resil.Budget{MaxAttempts: 1}}
	if _, err := cl.Join("a", bad.Wrap(inner, nil), "p.sion", cfg); err != nil {
		t.Fatal(err)
	}
	bad.SetRule(failReads(errPermanentFault))
	h, err := cl.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	_, err = h.ReadLogicalAt(buf, 0)
	if !errors.Is(err, errPermanentFault) {
		t.Fatalf("read error %v does not carry the backend's permanent error", err)
	}
	if errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("permanent backend error disguised as degradation: %v", err)
	}
	st := cl.Stats()
	if st.Failovers != 0 || st.AllReplicasDown != 0 {
		t.Fatalf("permanent error burned replicas: %+v", st)
	}
}

// TestClusterAllReplicasDegraded pins the terminal failure mode: when
// every replica's backend is down and nothing is cached, reads fail with
// a typed serve.ErrDegraded and the all-replicas-down counter moves.
func TestClusterAllReplicasDegraded(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	writeMultifile(t, inner, "d.sion", 4)
	a, b := simfs.NewFlaky(simfs.FlakyConfig{}), simfs.NewFlaky(simfs.FlakyConfig{})
	cl := New(nil)
	defer cl.Close()
	cfg := &serve.Config{CacheBytes: testCache, Retry: &resil.Budget{MaxAttempts: 1}}
	if _, err := cl.Join("a", a.Wrap(inner, nil), "d.sion", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("b", b.Wrap(inner, nil), "d.sion", cfg); err != nil {
		t.Fatal(err)
	}
	a.SetRule(failReads(errTransientFault))
	b.SetRule(failReads(errTransientFault))
	h, err := cl.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := h.ReadLogicalAt(buf, 0); !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("all-down read failed with %v, want a typed serve.ErrDegraded", err)
	}
	if cl.Stats().AllReplicasDown == 0 {
		t.Fatal("all-replicas-down counter did not move")
	}
	// Recovery: heal the backends and the same handle serves again.
	a.SetRule(nil)
	b.SetRule(nil)
	if _, err := h.ReadLogicalAt(buf, 0); err != nil && !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("healed read: %v", err)
	}
}

// TestClusterMembership pins the membership API's error contract.
func TestClusterMembership(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "m.sion", 4)
	cl := New(nil)
	cfg := &serve.Config{CacheBytes: testCache}

	if _, err := cl.Open(0); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Open on an empty cluster: %v, want ErrNoNodes", err)
	}
	if _, err := cl.Join("a", fsys, "m.sion", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("a", fsys, "m.sion", cfg); err == nil {
		t.Fatal("duplicate node id joined")
	}
	if _, err := cl.Join("b", fsys, "other.sion", cfg); err == nil {
		t.Fatal("join with a different multifile name succeeded")
	}
	if err := cl.Leave("ghost"); err == nil {
		t.Fatal("leave of an unknown node succeeded")
	}
	if _, err := cl.Join("b", fsys, "m.sion", cfg); err != nil {
		t.Fatal(err)
	}
	checkRank(t, cl, 0, payloads[0])
	if err := cl.Leave("a"); err != nil {
		t.Fatal(err)
	}
	checkRank(t, cl, 1, payloads[1]) // one node remains: still serving
	if err := cl.Leave("b"); err != nil {
		t.Fatal(err)
	}
	h, err := cl.Open(0) // layout is known; routing must fail
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadLogicalAt(make([]byte, 8), 0); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("read with no nodes: %v, want ErrNoNodes", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v (want nil — Close must be idempotent)", err)
	}
	if _, err := cl.Join("c", fsys, "m.sion", cfg); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("join after Close: %v, want ErrClusterClosed", err)
	}
	if _, err := h.ReadLogicalAt(make([]byte, 8), 0); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("read after Close: %v, want ErrClusterClosed", err)
	}
}

// TestClusterRejectedJoinKeepsMetrics: a Join refused for a duplicate id
// leaves the live node's node=<id> families reading the live node, not a
// server the cluster never admitted.
func TestClusterRejectedJoinKeepsMetrics(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "k.sion", 4)
	cl := New(nil)
	defer cl.Close()
	cfg := &serve.Config{CacheBytes: testCache}
	if _, err := cl.Join("n1", fsys, "k.sion", cfg); err != nil {
		t.Fatal(err)
	}
	checkRank(t, cl, 0, payloads[0])
	if _, err := cl.Join("n1", fsys, "k.sion", cfg); err == nil {
		t.Fatal("duplicate node id joined")
	}
	var body bytes.Buffer
	if err := cl.Metrics().WriteProm(&body); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats().Serve
	for series, want := range map[string]int64{
		`serve_served_bytes_total{node="n1"}`:   st.ServedBytes,
		`serve_cache_resident_bytes{node="n1"}`: st.CachedBytes,
	} {
		if want == 0 {
			t.Fatalf("%s: the read left nothing to compare (%+v)", series, st)
		}
		if got := sample(t, body.String(), series); got != want {
			t.Errorf("%s = %d after a rejected join, Stats says %d", series, got, want)
		}
	}
}

// TestClusterJoinRefusesLiveMultifile: Join of a multifile still being
// written — here one whose writer never closed it, so its sidecars stand
// and its trailer is missing — fails with an error wrapping sion.ErrAgain
// and leaves the ring and the registry as they were. The same id then
// joins a closed multifile.
func TestClusterJoinRefusesLiveMultifile(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(2, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "live.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), 700)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	fh, err := fsys.OpenRW(sion.PhysicalNames("live.sion", 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	size, err := fh.Size()
	if err == nil {
		err = fh.Truncate(size - 1) // the trailer's magic no longer parses
	}
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}

	cl := New(nil)
	defer cl.Close()
	cfg := &serve.Config{CacheBytes: testCache}
	var before, after bytes.Buffer
	if err := cl.Metrics().WriteProm(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("a", fsys, "live.sion", cfg); !errors.Is(err, sion.ErrAgain) {
		t.Fatalf("Join of a live multifile: %v, want sion.ErrAgain", err)
	}
	if err := cl.Metrics().WriteProm(&after); err != nil {
		t.Fatal(err)
	}
	if ids := cl.NodeIDs(); len(ids) != 0 || cl.view.Load().name != "" || cl.Layout() != nil {
		t.Fatalf("refused Join left nodes %v, name %q, layout %v", ids, cl.view.Load().name, cl.Layout())
	}
	if before.String() != after.String() {
		t.Fatalf("refused Join changed the registry:\n%s\nwant\n%s", after.String(), before.String())
	}
	payloads := writeMultifile(t, fsys, "c.sion", 2)
	if _, err := cl.Join("a", fsys, "c.sion", cfg); err != nil {
		t.Fatal(err)
	}
	checkRank(t, cl, 1, payloads[1])
}

// sample returns the value of one series in a Prometheus text exposition.
func sample(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return int64(f)
		}
	}
	t.Fatalf("exposition lacks %s", series)
	return 0
}

// TestClusterClosedRejectsResidentReads: after Close a read fails with
// ErrClusterClosed even when every block it needs is resident.
func TestClusterClosedRejectsResidentReads(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "c.sion", 4)
	cl := New(nil)
	for _, id := range []string{"a", "b"} {
		if _, err := cl.Join(id, fsys, "c.sion", &serve.Config{CacheBytes: testCache}); err != nil {
			t.Fatal(err)
		}
	}
	checkRank(t, cl, 0, payloads[0])
	h, err := cl.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payloads[0]))
	before := cl.Stats().Serve
	if _, err := h.ReadLogicalAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats().Serve; st.Misses != before.Misses || st.Hits == before.Hits {
		t.Fatalf("second read of rank 0: %+v -> %+v, want every block a hit", before, st)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadLogicalAt(buf, 0); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("resident read after Close: %v, want ErrClusterClosed", err)
	}
}

// TestClusterConcurrentChurnRace is the -race exercise for the serving
// tier: concurrent clients Open and read through the router while nodes
// join and leave, stats and health run, and — on a second,
// live multifile — a serve server's Follow/Poll/Stats/Health are
// driven alongside. Reads must stay byte-identical throughout (a core
// node never leaves, so every block always has a live replica).
func TestClusterConcurrentChurnRace(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "r.sion", 6)
	cl := New(nil)
	defer cl.Close()
	for i := 0; i < 2; i++ { // the core: never leaves
		if _, err := cl.Join(fmt.Sprintf("core-%d", i), fsys, "r.sion", &serve.Config{CacheBytes: testCache}); err != nil {
			t.Fatal(err)
		}
	}

	// A live multifile for the tail half of the exercise.
	const tailBytes = 20000
	tailPayload := testPayload(99, tailBytes)
	firstCommit := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		mpi.Run(1, func(c *mpi.Comm) {
			f, err := sion.ParOpen(c, fsys, "live.sion", sion.WriteMode, &sion.Options{
				ChunkSize: 1024, FSBlockSize: 256, Watermarks: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for off := 0; off < tailBytes; off += 1000 {
				if _, err := f.Write(tailPayload[off : off+1000]); err != nil {
					t.Error(err)
				}
				if err := f.Flush(); err != nil {
					t.Error(err)
				}
				if off == 0 {
					close(firstCommit)
				}
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
	}()
	<-firstCommit
	ts, err := serve.New(fsys, "live.sion", &serve.Config{CacheBytes: testCache})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Cluster readers: fresh handles, full-stream identity checks.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := (g + i) % len(payloads)
				h, err := cl.Open(r)
				if err != nil {
					t.Errorf("churn Open rank %d: %v", r, err)
					return
				}
				got := make([]byte, len(payloads[r]))
				if _, err := h.ReadLogicalAt(got, 0); err != nil {
					t.Errorf("churn read rank %d: %v", r, err)
					return
				}
				if !bytes.Equal(got, payloads[r]) {
					t.Errorf("churn read rank %d: bytes differ", r)
					return
				}
			}
		}(g)
	}
	// Stats / health observers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = cl.Stats()
			_ = cl.Health()
			_ = cl.Degraded()
			_ = ts.Stats()
			_ = ts.Health()
		}
	}()
	// Tail follower: drains the live stream to EOF with byte identity.
	wg.Add(1)
	var tailOK atomic.Bool
	go func() {
		defer wg.Done()
		h, err := ts.Open(0)
		if err != nil {
			t.Errorf("Open on the live server: %v", err)
			return
		}
		var got []byte
		buf := make([]byte, 333)
		for {
			n, err := h.Read(buf)
			got = append(got, buf[:n]...)
			if errors.Is(err, sion.ErrAgain) { // at the frontier: wait, then poll
				time.Sleep(time.Millisecond)
				_, err = ts.Poll()
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("follow: %v", err)
				}
				break
			}
		}
		if bytes.Equal(got, tailPayload) {
			tailOK.Store(true)
		} else {
			t.Errorf("tailed stream differs: %d bytes, want %d", len(got), tailBytes)
		}
	}()
	// Membership churn: transient nodes join and leave under the readers.
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("churn-%d", i)
		if _, err := cl.Join(id, fsys, "r.sion", &serve.Config{CacheBytes: testCache}); err != nil {
			t.Fatalf("churn join %s: %v", id, err)
		}
		if err := cl.Leave(id); err != nil {
			t.Fatalf("churn leave %s: %v", id, err)
		}
	}
	<-writerDone
	close(stop)
	wg.Wait()
	if !tailOK.Load() {
		t.Fatal("tail follower did not drain the live stream byte-identically")
	}
	for r, want := range payloads { // final identity after all churn
		checkRank(t, cl, r, want)
	}
	if got := len(cl.NodeIDs()); got != 2 {
		t.Fatalf("%d nodes after churn, want the 2 core nodes", got)
	}
}
