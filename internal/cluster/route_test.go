package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/serve"
)

// The routing contract: a granule is the unit of placement, a run is the
// unit of routing, a block stays the unit of caching. These tests drive
// Cluster.ReadFileAt with physical offsets, where granule boundaries lie
// on the file's chunk grid (granuleOff), and compare against the physical
// file read straight from the directory.

const granuleBlocks = granuleBytes / testBlock

// granuleOff is where granule g of physical file `file` starts: granules
// lie on the file's chunk grid (sion.Layout.GridShift), so granule 0 starts before
// byte 0 and ends with the file's first FS blocks.
func granuleOff(cl *Cluster, file int, g int64) int64 {
	return g*granuleBytes - cl.view.Load().shift[file]
}

// startCluster joins n nodes ("n0".."n<n-1>") over the multifile `name`;
// node i reads through fsOf(i).
func startCluster(t testing.TB, n int, name string, fsOf func(i int) fsio.FileSystem, scfg serve.Config) *Cluster {
	t.Helper()
	cl := New(nil)
	t.Cleanup(func() { cl.Close() })
	for i := 0; i < n; i++ {
		c := scfg
		if _, err := cl.Join(fmt.Sprintf("n%d", i), fsOf(i), name, &c); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// physFile returns physical file `file` of the cluster's multifile as it
// lies in dir.
func physFile(t testing.TB, dir string, cl *Cluster, file int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, cl.Layout().PhysicalName(file)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// candidatesOf is the ring's node order for a granule.
func candidatesOf(cl *Cluster, file int, granule int64) []*Node {
	var buf [maxNodes]int
	var out []*Node
	v := cl.view.Load()
	for _, ni := range v.ring.lookup(granuleHash(file, granule), &buf) {
		out = append(out, v.nodes[ni])
	}
	return out
}

// readAt reads one window through the router and checks it against the
// physical file.
func readAt(t *testing.T, cl *Cluster, phys []byte, file int, off int64, n int) {
	t.Helper()
	p := make([]byte, n)
	if err := cl.ReadFileAt(file, p, off, nil); err != nil {
		t.Fatalf("ReadFileAt(file %d, [%d, %d)): %v", file, off, off+int64(n), err)
	}
	if !bytes.Equal(p, phys[off:off+int64(n)]) {
		t.Fatalf("ReadFileAt(file %d, [%d, %d)): bytes differ from the physical file", file, off, off+int64(n))
	}
}

func served(cl *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, ns := range cl.Stats().PerNode {
		out[ns.ID] = ns.Serve.ServedBytes
	}
	return out
}

// TestRouteRunIsOneNodeCall: a 64 KiB request inside one granule is one
// run — one node call, at most two backend reads cold (the node fuses the
// run's 17 blocks into spans), none and no allocation warm.
func TestRouteRunIsOneNodeCall(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(t, fsys, "r.sion", 8)
	cl := startCluster(t, 3, "r.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
	phys := physFile(t, dir, cl, 0)

	off := granuleOff(cl, 0, 2) + 3*testBlock + 17 // unaligned, and the window stays inside granule 2
	const n = 64 << 10
	before := cl.Stats()
	readAt(t, cl, phys, 0, off, n)
	cold := cl.Stats()
	if d := cold.Requests - before.Requests; d != 1 {
		t.Fatalf("a request inside one granule was routed as %d runs, want 1", d)
	}
	if d := cold.Serve.BackendReads - before.Serve.BackendReads; d < 1 || d > 2 {
		t.Fatalf("cold 64 KiB run issued %d backend reads cluster-wide, want 1 or 2", d)
	}

	p := make([]byte, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := cl.ReadFileAt(0, p, off, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm run allocates %.1f times per read, want 0", allocs)
	}
	warm := cl.Stats()
	if d := warm.Requests - cold.Requests; d != 101 { // AllocsPerRun adds a warm-up call
		t.Fatalf("101 warm reads were routed as %d runs, want 101", d)
	}
	if warm.Serve.BackendReads != cold.Serve.BackendReads || warm.Serve.Misses != cold.Serve.Misses {
		t.Fatalf("warm reads went to the backend: %+v -> %+v", cold.Serve, warm.Serve)
	}
}

// TestRouteScanBackendReadsMatchSingleNode: a sequential scan of every
// rank costs the ring no more backend reads than it costs one serve.Server,
// apart from one extra span per granule cut.
func TestRouteScanBackendReadsMatchSingleNode(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "s.sion", 8)
	one, err := serve.New(fsys, "s.sion", &serve.Config{CacheBytes: testCache})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	cl := startCluster(t, 3, "s.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})

	var extents int64
	for r, want := range payloads {
		h, err := one.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := h.ReadLogicalAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("rank %d through one node: err %v, identical %v", r, err, bytes.Equal(got, want))
		}
		checkRank(t, cl, r, want)
		extents += int64(len(cl.Layout().RankBlocks(r)))
	}
	st := cl.Stats()
	cuts := st.Requests - extents
	if cuts < 0 {
		t.Fatalf("%d runs for %d chunk extents", st.Requests, extents)
	}
	if single := one.Stats().BackendReads; st.Serve.BackendReads > single+cuts {
		t.Fatalf("scan cost the ring %d backend reads, one node %d, with %d granule cuts", st.Serve.BackendReads, single, cuts)
	}
}

// TestRouteCutsAtGranuleBoundary: a request straddling a granule boundary
// becomes two runs cut exactly there, each served by its own granule's
// primary, and the bytes are those of the file.
func TestRouteCutsAtGranuleBoundary(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(t, fsys, "g.sion", 8)
	cl := startCluster(t, 3, "g.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
	phys := physFile(t, dir, cl, 0)

	// A boundary whose two sides have different primaries.
	g := int64(1)
	for candidatesOf(cl, 0, g-1)[0] == candidatesOf(cl, 0, g)[0] {
		g++
		if granuleOff(cl, 0, g+1) > int64(len(phys)) {
			t.Fatal("every granule of file 0 has the same primary")
		}
	}
	left, right := candidatesOf(cl, 0, g-1)[0].ID, candidatesOf(cl, 0, g)[0].ID
	bound := granuleOff(cl, 0, g)

	before, reqs := served(cl), cl.Stats().Requests
	readAt(t, cl, phys, 0, bound-10000, 30000)
	after := served(cl)
	if d := cl.Stats().Requests - reqs; d != 2 {
		t.Fatalf("straddling request routed as %d runs, want 2", d)
	}
	for id := range after {
		want := map[string]int64{left: 10000, right: 20000}[id]
		if d := after[id] - before[id]; d != want {
			t.Fatalf("node %s served %d bytes of the straddling request, want %d (cut at %d)", id, d, want, bound)
		}
	}
	reqs = cl.Stats().Requests
	readAt(t, cl, phys, 0, bound-10000, 10000)
	readAt(t, cl, phys, 0, bound, 20000)
	if d := cl.Stats().Requests - reqs; d != 2 {
		t.Fatalf("two requests touching the boundary from either side routed as %d runs, want 2", d)
	}
}

// TestRouteRequestsOutliveTheirNode: Stats().Requests is every run routed
// over the cluster's life, the runs of a node that has since left included.
func TestRouteRequestsOutliveTheirNode(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(t, fsys, "d.sion", 8)
	cl := startCluster(t, 3, "d.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
	phys := physFile(t, dir, cl, 0)
	granules := (int64(len(phys)) - granuleOff(cl, 0, 0)) / granuleBytes
	pass := func() { // one run per granule of file 0
		for g := int64(0); g < granules; g++ {
			readAt(t, cl, phys, 0, max(granuleOff(cl, 0, g), 0), 4096)
		}
	}
	pass()
	if got := cl.Stats().Requests; got != granules || served(cl)["n0"] == 0 {
		t.Fatalf("%d runs for %d granules, n0 served %d bytes; want one run each, some of them n0's",
			got, granules, served(cl)["n0"])
	}
	if err := cl.Leave("n0"); err != nil {
		t.Fatal(err)
	}
	pass()
	if got := cl.Stats().Requests; got != 2*granules {
		t.Fatalf("%d runs after n0 left, want the %d routed", got, 2*granules)
	}
}

// TestRouteGranuleSharesOneOwner: every block of a granule, read on its
// own, goes to the same node — the granule's primary.
func TestRouteGranuleSharesOneOwner(t *testing.T) {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(t, fsys, "o.sion", 8)
	cl := startCluster(t, 3, "o.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
	phys := physFile(t, dir, cl, 1)

	const g = 3
	before := served(cl)
	for b := int64(0); b < granuleBlocks; b++ {
		readAt(t, cl, phys, 1, granuleOff(cl, 1, g)+b*testBlock, testBlock)
	}
	owner := candidatesOf(cl, 1, g)[0].ID
	for id, now := range served(cl) {
		want := int64(0)
		if id == owner {
			want = granuleBytes
		}
		if d := now - before[id]; d != want {
			t.Fatalf("node %s served %d bytes of granule %d, want %d (primary %s)", id, d, g, want, owner)
		}
	}
}

// TestRouteFailoverIsPerRun: a run whose primary fails moves to the
// successor as a whole and counts one failover, not one per block; a
// primary whose circuit is open is not asked at all; with every replica
// down the read fails with a typed serve.ErrDegraded.
func TestRouteFailoverIsPerRun(t *testing.T) {
	dir := t.TempDir()
	inner := fsio.NewOS(dir)
	writeMultifile(t, inner, "f.sion", 8)
	faults := flakies(3)
	cl := startCluster(t, 3, "f.sion", func(i int) fsio.FileSystem { return faults[i].Wrap(inner, nil) },
		serve.Config{CacheBytes: testCache, Retry: &resil.Budget{MaxAttempts: 1}, BreakerThreshold: 1, BreakerCooldown: 1 << 20})
	phys := physFile(t, dir, cl, 0)

	const g, n = 2, 64 << 10
	cands := candidatesOf(cl, 0, g)
	primary, successor := cands[0], cands[1]
	faults[primary.ID[1]-'0'].SetRule(failReads(errTransientFault)) // node "n<i>" reads through faults[i]: the primary's backend now fails transiently

	before, bytesBefore := cl.Stats(), served(cl)
	readAt(t, cl, phys, 0, granuleOff(cl, 0, g), n)
	st := cl.Stats()
	if st.Requests-before.Requests != 1 || st.Failovers-before.Failovers != 1 {
		t.Fatalf("failed-over run counted %d runs and %d failovers, want 1 and 1",
			st.Requests-before.Requests, st.Failovers-before.Failovers)
	}
	if d := served(cl)[successor.ID] - bytesBefore[successor.ID]; d != n {
		t.Fatalf("successor %s served %d bytes of the run, want all %d", successor.ID, d, n)
	}
	if !primary.srv.Degraded() {
		t.Fatal("the primary's circuit did not open (BreakerThreshold 1)")
	}

	// Circuit open: the primary moves behind the healthy replicas.
	before = st
	readAt(t, cl, phys, 0, granuleOff(cl, 0, g)+n, n)
	st = cl.Stats()
	if st.Requests-before.Requests != 1 || st.Failovers != before.Failovers {
		t.Fatalf("run past an open circuit counted %d runs and %d failovers, want 1 and 0",
			st.Requests-before.Requests, st.Failovers-before.Failovers)
	}
	if d := primary.srv.Stats().Degraded; d != 0 {
		t.Fatalf("the degraded primary was asked %d times though healthy replicas answered", d)
	}

	for _, f := range faults {
		f.SetRule(failReads(errTransientFault))
	}
	before = st
	err := cl.ReadFileAt(0, make([]byte, n), granuleOff(cl, 0, g)+2*n, nil)
	if !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("read with every replica down: %v, want a typed serve.ErrDegraded", err)
	}
	st = cl.Stats()
	if st.Requests-before.Requests != 1 || st.AllReplicasDown-before.AllReplicasDown != 1 {
		t.Fatalf("all-down run counted %d runs and %d all-replicas-down, want 1 and 1",
			st.Requests-before.Requests, st.AllReplicasDown-before.AllReplicasDown)
	}
}

// TestZeroLengthReadTouchesNothing: an empty read, at any offset, routes
// no run and reaches no cache or backend.
func TestZeroLengthReadTouchesNothing(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	writeMultifile(t, fsys, "z.sion", 4)
	cl := startCluster(t, 3, "z.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
	before := cl.Stats()
	for _, off := range []int64{0, 100, testBlock, testBlock + 904, granuleBytes - 1} {
		if err := cl.ReadFileAt(0, nil, off, nil); err != nil {
			t.Fatalf("empty read at %d: %v", off, err)
		}
	}
	st := cl.Stats()
	if st.Requests != before.Requests || st.Serve.Hits != before.Serve.Hits ||
		st.Serve.Misses != before.Serve.Misses || st.Serve.BackendReads != before.Serve.BackendReads {
		t.Fatalf("empty reads moved the counters: %+v -> %+v", before, st)
	}
}

// recordFS is an fsio decorator that logs the (file, off, len) of every
// ReadAt issued while it is armed. Unwrap keeps the backend's
// capabilities, so the serve layer sizes its span reads as it would on
// the bare backend.
type recordFS struct {
	fsio.FileSystem

	mu    sync.Mutex
	armed bool
	reads []string
}

func (r *recordFS) Unwrap() fsio.FileSystem { return r.FileSystem }

func (r *recordFS) Open(name string) (fsio.File, error) {
	fh, err := r.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordFile{File: fh, fs: r, name: name}, nil
}

type recordFile struct {
	fsio.File
	fs   *recordFS
	name string
}

func (f *recordFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	if f.fs.armed {
		f.fs.reads = append(f.fs.reads, fmt.Sprintf("%s %d %d", f.name, off, len(p)))
	}
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (r *recordFS) arm() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = true
	return r.reads
}

// TestOneNodeIsAServer: a one-node cluster serves a window exactly as a
// lone serve.Server does. The same window list — 1 MiB slabs across
// granule boundaries, small reads, and enough traffic past a small cache
// that blocks are read around it — issues the same backend reads in the
// same order and leaves the same serve.Stats through either.
func TestOneNodeIsAServer(t *testing.T) {
	dir := t.TempDir()
	inner := fsio.NewOS(dir)
	writeMultifile(t, inner, "one.sion", 8)
	scfg := serve.Config{CacheBytes: 512 << 10, Shards: 4}

	srvFS, clFS := &recordFS{FileSystem: inner}, &recordFS{FileSystem: inner}
	cfg := scfg
	srv, err := serve.New(srvFS, "one.sion", &cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := startCluster(t, 1, "one.sion", func(int) fsio.FileSystem { return clFS }, scfg)
	phys := [][]byte{physFile(t, dir, cl, 0), physFile(t, dir, cl, 1)}

	type window struct {
		file int
		off  int64
		n    int
	}
	var windows []window
	for g := int64(1); (g+4)*granuleBytes < int64(len(phys[0])); g += 2 {
		windows = append(windows, window{0, g*granuleBytes - 100000, 1 << 20})
	}
	rng := rand.New(rand.NewSource(34))
	sizes := []int{4 << 10, 9000, 64 << 10, 1 << 20}
	for i := 0; i < 300; i++ {
		file, n := rng.Intn(2), sizes[rng.Intn(len(sizes))]
		windows = append(windows, window{file, rng.Int63n(int64(len(phys[file]) - n)), n})
	}

	replay := func(r serve.FileReaderAt, rec *recordFS) []string {
		before := len(rec.arm())
		for _, w := range windows {
			p := make([]byte, w.n)
			if err := r.ReadFileAt(w.file, p, w.off, nil); err != nil {
				t.Fatalf("ReadFileAt(file %d, [%d, %d)): %v", w.file, w.off, w.off+int64(w.n), err)
			}
			if !bytes.Equal(p, phys[w.file][w.off:w.off+int64(w.n)]) {
				t.Fatalf("ReadFileAt(file %d, [%d, %d)): bytes differ from the file", w.file, w.off, w.off+int64(w.n))
			}
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.reads[before:]
	}
	srvReads, clReads := replay(srv, srvFS), replay(cl, clFS)

	if len(srvReads) != len(clReads) {
		t.Fatalf("the server issued %d backend reads, the one-node cluster %d", len(srvReads), len(clReads))
	}
	for i := range srvReads {
		if srvReads[i] != clReads[i] {
			t.Fatalf("backend read %d: server %q, one-node cluster %q", i, srvReads[i], clReads[i])
		}
	}
	want, got := srv.Stats(), cl.Stats()
	if want.ReadAround == 0 || want.Evictions == 0 || want.Hits == 0 {
		t.Fatalf("the windows did not exercise the cache: %+v", want)
	}
	if got.Requests != int64(len(windows)) {
		t.Errorf("%d windows were routed as %d runs, want one each", len(windows), got.Requests)
	}
	want.HandlesOpened, got.Serve.HandlesOpened = 0, 0
	if got.Serve != want {
		t.Fatalf("one-node cluster stats %+v, server %+v", got.Serve, want)
	}
}

// BenchmarkRoute replays one request stream over physical file 0 through
// the 3-node ring and through one serve.Server with the same total cache:
// ring ns/op over node ns/op is what the router costs. hit*: everything
// resident; cold64k: the cache holds a quarter of the file and the stream
// walks all of it, so nearly every request misses; slab1m: resident 1 MiB
// reads, four or five runs each. one is the one-node cluster, whose window
// is one run however long: one ns/op over node ns/op is what sionserve's
// default topology costs over a bare serve.Server. ring-par and node-par
// (hit4k and cold64k only) are the ring and node cases from GOMAXPROCS goroutines at once
// (-cpu 1,2,4 is the scaling table): hit4k/*-par prices what concurrent
// hits share — shard locks, counters, the routing snapshot — and
// cold64k/*-par concurrent misses and backend reads of one file. Every
// case reports probes/op, the peer-fill Peeks per request: every topology
// here is static, where a node is routed only its own granules and a miss
// has no peer to ask, so a probe fails the case.
func BenchmarkRoute(b *testing.B) {
	dir := b.TempDir()
	fsys := fsio.NewOS(dir)
	writeMultifile(b, fsys, "b.sion", 8)
	tl, err := sion.LoadTailLayout(fsys, "b.sion")
	if err != nil {
		b.Fatal(err)
	}
	tl.Close()
	layout := tl.Layout()
	fi, err := os.Stat(filepath.Join(dir, layout.PhysicalName(0)))
	if err != nil {
		b.Fatal(err)
	}
	span0 := fi.Size()
	for _, bc := range []struct {
		name  string
		size  int
		cache int64
	}{
		{"hit4k", 4 << 10, 3 * testCache},
		{"hit64k", 64 << 10, 3 * testCache},
		{"cold64k", 64 << 10, 768 << 10},
		{"slab1m", 1 << 20, 3 * testCache},
	} {
		span := span0 - int64(bc.size)
		read := func(b *testing.B, r serve.FileReaderAt, p []byte, i int64) {
			if err := r.ReadFileAt(0, p, (i*int64(bc.size)+1000)%span, nil); err != nil {
				b.Fatal(err)
			}
		}
		// setup faults a resident case in, starts the clock and returns a
		// request buffer.
		setup := func(b *testing.B, r serve.FileReaderAt) []byte {
			p := make([]byte, bc.size)
			if bc.cache >= span0 {
				for off := int64(0); off < span; off += int64(bc.size) {
					if err := r.ReadFileAt(0, p, off, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			return p
		}
		// probes stops the clock and reports the peer-fill probes per op
		// (a serve.Server has no peers to probe).
		probes := func(b *testing.B, r serve.FileReaderAt) {
			b.StopTimer()
			var n int64
			if cl, ok := r.(*Cluster); ok {
				if n = cl.Stats().PeerProbes; n != 0 {
					b.Fatalf("a static topology issued %d peer probes", n)
				}
			}
			b.ReportMetric(float64(n)/float64(b.N), "probes/op")
		}
		run := func(b *testing.B, r serve.FileReaderAt) {
			p := setup(b, r)
			for i := 0; i < b.N; i++ {
				read(b, r, p, int64(i))
			}
			probes(b, r)
		}
		par := func(b *testing.B, r serve.FileReaderAt) {
			setup(b, r)
			var workers atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				p := make([]byte, bc.size)
				// Each worker walks the whole file from its own phase.
				for i := workers.Add(1) * 7919; pb.Next(); i++ {
					read(b, r, p, i)
				}
			})
			probes(b, r)
		}
		ring := func(b *testing.B) serve.FileReaderAt {
			return startCluster(b, 3, "b.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: bc.cache / 3})
		}
		node := func(b *testing.B) serve.FileReaderAt {
			srv, err := serve.New(fsys, "b.sion", &serve.Config{CacheBytes: bc.cache})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			return srv
		}
		one := func(b *testing.B) serve.FileReaderAt {
			return startCluster(b, 1, "b.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: bc.cache})
		}
		b.Run(bc.name+"/ring", func(b *testing.B) { run(b, ring(b)) })
		b.Run(bc.name+"/node", func(b *testing.B) { run(b, node(b)) })
		b.Run(bc.name+"/one", func(b *testing.B) { run(b, one(b)) })
		if bc.name != "hit4k" && bc.name != "cold64k" {
			continue
		}
		b.Run(bc.name+"/ring-par", func(b *testing.B) { par(b, ring(b)) })
		b.Run(bc.name+"/node-par", func(b *testing.B) { par(b, node(b)) })
	}
}

// TestRunsFollowTheChunkGrid: with 4 KiB FS blocks every chunk starts one
// FS block (metablock 1) past a multiple of its size, and granules start
// at the first chunk. So a window inside one chunk is one node call when
// the chunk is a granule or a quarter of one, and when it is four of them
// a window inside one granule-sized quarter of it is; a window across the
// edge between a rank's two chunks makes exactly the layout's pieces.
func TestRunsFollowTheChunkGrid(t *testing.T) {
	for _, chunk := range []int64{granuleBytes / 4, granuleBytes, 4 * granuleBytes} {
		t.Run(fmt.Sprint(chunk>>10, "KiB"), func(t *testing.T) {
			fsys := fsio.NewOS(t.TempDir())
			const ranks = 4
			payloads := make([][]byte, ranks)
			for r := range payloads {
				payloads[r] = testPayload(r, int(2*chunk))
			}
			mpi.Run(ranks, func(c *mpi.Comm) {
				f, err := sion.ParOpen(c, fsys, "c.sion", sion.WriteMode, &sion.Options{
					ChunkSize: chunk, FSBlockSize: testBlock, NFiles: 1,
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
			if t.Failed() {
				t.FailNow()
			}
			cl := startCluster(t, 3, "c.sion", func(int) fsio.FileSystem { return fsys }, serve.Config{CacheBytes: testCache})
			l := cl.Layout()
			if first := l.RankBlocks(0)[0].Off; first != testBlock {
				t.Fatalf("the first chunk starts at %d, want one FS block in", first)
			}
			runs := func(rank int, off, n int64) int64 {
				t.Helper()
				h, err := cl.Open(rank)
				if err != nil {
					t.Fatal(err)
				}
				before := cl.Stats().Requests
				p := make([]byte, n)
				if _, err := h.ReadLogicalAt(p, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p, payloads[rank][off:off+n]) {
					t.Fatalf("rank %d, %d bytes at %d: bytes differ", rank, n, off)
				}
				return cl.Stats().Requests - before
			}
			for rank := 0; rank < ranks; rank++ {
				piece := min(chunk, granuleBytes)
				for off := int64(0); off < 2*chunk; off += piece {
					if got := runs(rank, off, piece); got != 1 {
						t.Fatalf("rank %d: %d bytes at %d, inside one chunk and one granule, made %d node calls, want 1",
							rank, piece, off, got)
					}
				}
				off, n := chunk-5000, int64(9000)
				pieces := int64(0)
				l.ReadRankAt(rank, make([]byte, n), off, func(int, []byte, int64) error { pieces++; return nil })
				if got := runs(rank, off, n); pieces != 2 || got != pieces {
					t.Fatalf("rank %d: a window across its chunk edge made %d node calls, want the layout's %d pieces (2)", rank, got, pieces)
				}
			}
		})
	}
}
