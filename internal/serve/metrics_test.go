package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// writeSimMultifile writes an n-task multifile into a simulated file
// system. simfs writes must run under the virtual-time engine (views are
// proc-bound); the returned payloads are read back later through a
// nil-proc view, which skips time metering entirely.
func writeSimMultifile(t *testing.T, fs *simfs.FS, name string, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for r := range payloads {
		payloads[r] = testPayload(r, 2500+37*r)
	}
	e := vtime.NewEngine()
	mpi.RunSim(e, n, mpi.DefaultCost, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fs.View(c.Rank(), c.Proc()), name, sion.WriteMode, &sion.Options{
			ChunkSize: 1024, FSBlockSize: 256, NFiles: 2,
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

// simReadReqs sums the simulated backend's own read-request ledger over
// the multifile's physical files.
func simReadReqs(t *testing.T, fs *simfs.FS, name string, nfiles int) int64 {
	t.Helper()
	var total int64
	for _, phys := range sion.PhysicalNames(name, nfiles) {
		st, ok := fs.Stats(phys)
		if !ok {
			t.Fatalf("no simfs stats for %s", phys)
		}
		total += st.ReadRequests
	}
	return total
}

// TestMetricsReconcileWithBackend drives concurrent clients over a
// simulated backend and reconciles the registry's counters against the
// backend's own request ledger: every backend read the server counted is
// one the file system actually saw, exactly — no drops, no double counts.
// Run under -race in CI, this also pins the instruments' thread safety on
// the hot path.
func TestMetricsReconcileWithBackend(t *testing.T) {
	fs := simfs.New(simfs.Jugene())
	const n = 8
	payloads := writeSimMultifile(t, fs, "m.sion", n)

	reg := obs.NewRegistry()
	s, err := New(fs.View(n, nil), "m.sion", &Config{
		CacheBytes: 1 << 20, Shards: 8, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nfiles := s.Layout().NumFiles()
	preReads := simReadReqs(t, fs, "m.sion", nfiles) // layout load traffic

	const clients = 32
	var wg sync.WaitGroup
	var served int64 // bytes delivered to clients, summed across goroutines
	var servedMu sync.Mutex
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rank := c % n
			want := payloads[rank]
			h, err := s.Open(rank)
			if err != nil {
				errs <- err
				return
			}
			var mine int64
			for pass := 0; pass < 3; pass++ {
				buf := make([]byte, len(want))
				if _, err := h.ReadLogicalAt(buf, 0); err != nil {
					errs <- fmt.Errorf("client %d pass %d: %w", c, pass, err)
					return
				}
				if !bytes.Equal(buf, want) {
					errs <- fmt.Errorf("client %d pass %d: bytes differ", c, pass)
					return
				}
				mine += int64(len(buf))
			}
			servedMu.Lock()
			served += mine
			servedMu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	backend := simReadReqs(t, fs, "m.sion", nfiles) - preReads
	if st.BackendReads != backend {
		t.Errorf("serve counted %d backend reads, the backend saw %d", st.BackendReads, backend)
	}
	if st.ServedBytes != served {
		t.Errorf("serve counted %d served bytes, clients received %d", st.ServedBytes, served)
	}
	if st.Hits == 0 || st.Misses == 0 || st.BackendReads == 0 {
		t.Errorf("storm left counters unseeded: %+v", st)
	}
	// The exposition is the same instruments; spot-check it agrees and
	// parses cleanly even right after heavy concurrent traffic.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition: %v", err)
	}
}

// stormServer opens a warmed server over the multifile: every rank read
// once so the measured passes below are pure cache hits — the path where
// instrumentation overhead would be most visible.
func stormServer(b *testing.B, fsys fsio.FileSystem, name string, payloads [][]byte, reg *obs.Registry) (*Server, []*Handle) {
	b.Helper()
	s, err := New(fsys, name, &Config{CacheBytes: 8 << 20, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	handles := make([]*Handle, len(payloads))
	for r := range payloads {
		h, err := s.Open(r)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, len(payloads[r]))
		if _, err := h.ReadLogicalAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		handles[r] = h
	}
	return s, handles
}

// stormPass reads every rank's stream once through the warm cache.
func stormPass(b *testing.B, handles []*Handle, bufs [][]byte) {
	for r, h := range handles {
		if _, err := h.ReadLogicalAt(bufs[r], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBenchMultifile writes the overhead guard's multifile: production-
// shaped blocks (16 KiB, vs the unit tests' 256 B) so the storm's cost
// profile matches a real deployment — block copies dominate, counters
// ride along.
func writeBenchMultifile(b *testing.B, fsys fsio.FileSystem, name string, n int) [][]byte {
	b.Helper()
	payloads := make([][]byte, n)
	for r := range payloads {
		payloads[r] = testPayload(r, 256<<10)
	}
	mpi.Run(n, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{
			ChunkSize: 256 << 10, FSBlockSize: 16 << 10, NFiles: 2,
		})
		if err != nil {
			b.Error(err)
			return
		}
		if _, err := f.Write(payloads[c.Rank()]); err != nil {
			b.Error(err)
		}
		if err := f.Close(); err != nil {
			b.Error(err)
		}
	})
	return payloads
}

// BenchmarkInstrumentationOverhead is the overhead guard: the same
// warm-cache read storm runs under the default (live) registry and under
// obs.Nop(), interleaved, and the ratio of the two minima must stay
// within 5% — counters on the per-block hit path are atomic adds and
// latency is sampled, so instrumentation must be noise. The guard fails
// the bench run when it regresses; run with `go test -bench
// InstrumentationOverhead ./internal/serve/`.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	fsys := fsio.NewOS(b.TempDir())
	const n = 4
	payloads := writeBenchMultifile(b, fsys, "o.sion", n)
	sOn, hOn := stormServer(b, fsys, "o.sion", payloads, nil) // live default registry
	defer sOn.Close()
	sOff, hOff := stormServer(b, fsys, "o.sion", payloads, obs.Nop())
	defer sOff.Close()
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, len(payloads[r]))
	}

	// Each benchmark iteration is one interleaved trial of both variants
	// (several storm passes each); the guard compares the best trial of
	// each so scheduler noise cancels instead of deciding the verdict.
	const passes = 20
	minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for p := 0; p < passes; p++ {
			stormPass(b, hOn, bufs)
		}
		if d := time.Since(start); d < minOn {
			minOn = d
		}
		start = time.Now()
		for p := 0; p < passes; p++ {
			stormPass(b, hOff, bufs)
		}
		if d := time.Since(start); d < minOff {
			minOff = d
		}
	}
	b.StopTimer()
	ratio := float64(minOn) / float64(minOff)
	b.ReportMetric(ratio, "overhead-ratio")
	if b.N >= 3 && ratio > 1.05 {
		b.Errorf("instrumented storm is %.1f%% slower than the no-op registry (budget 5%%)",
			(ratio-1)*100)
	}
}

// TestMissStormCountersAddUp: four readers storm a cold file with uniform
// windows whose first blocks cover every shard, so the miss path counts
// in every cell at once; summed, the cells must match the backend's own
// meter exactly — every read attempt and every byte — and the bytes the
// readers asked for.
func TestMissStormCountersAddUp(t *testing.T) {
	reg := obs.NewRegistry()
	fsys := fsio.Instrument(fsio.NewOS(t.TempDir()), fsio.NewMeter(reg, "os"))
	raw := writeOneFile(t, fsys, "u.sion", 8, 256<<10, 4096)
	s, err := New(fsys, "u.sion", &Config{CacheBytes: int64(len(raw)) / 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reads := reg.Counter("fsio_ops_total", "", obs.L("backend", "os", "op", "read")...)
	readBytes := reg.Counter("fsio_bytes_total", "", obs.L("backend", "os", "op", "read")...)
	reads0, bytes0 := reads.Value(), readBytes.Value()

	// Windows end a block short of the file's last whole block, so no
	// backend read is cut short by EOF and the meter's bytes are the
	// requested ones.
	bs := s.BlockBytes()
	top := (int64(len(raw))/bs - 1) * bs
	const readers, perReader = 4, 300
	var wg sync.WaitGroup
	asked := make([]int64, readers)
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := make([]byte, 16<<10)
			for i := 0; i < perReader; i++ {
				n := 1 + rng.Int63n(int64(len(p)))
				off := rng.Int63n(top - n)
				if err := s.ReadFileAt(0, p[:n], off, nil); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p[:n], raw[off:off+n]) {
					errs <- fmt.Errorf("reader %d: window [%d, +%d) differs from the file", g, off, n)
					return
				}
				asked[g] += n
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range s.m.cells {
		if s.m.cells[i].backendBytes.Load() == 0 {
			t.Fatalf("no request keyed to shard %d reached the backend: the storm missed a cell", i)
		}
	}
	var want int64
	for _, n := range asked {
		want += n
	}
	st := s.Stats()
	if got := reads.Value() - reads0; st.BackendReads != got {
		t.Errorf("serve counted %d backend reads, the meter %d", st.BackendReads, got)
	}
	if got := readBytes.Value() - bytes0; st.BackendBytes != got {
		t.Errorf("serve counted %d backend bytes, the meter %d", st.BackendBytes, got)
	}
	if st.ServedBytes != want {
		t.Errorf("serve counted %d served bytes, the readers asked for %d", st.ServedBytes, want)
	}
}

// TestShardCellLines: a cell and a shard fill whole cache lines, so
// neighbouring shards' never share one, and what a declined block's visit
// and a request that reads each span in one attempt write lies in the
// first line of each.
func TestShardCellLines(t *testing.T) {
	var c shardCell
	var s cacheShard
	if n := unsafe.Sizeof(c); n%64 != 0 {
		t.Fatalf("shardCell is %d bytes, not a whole number of 64-byte lines", n)
	}
	if n := unsafe.Sizeof(s); n%64 != 0 {
		t.Fatalf("cacheShard is %d bytes, not a whole number of 64-byte lines", n)
	}
	if end := unsafe.Offsetof(c.fetchSpanBlocks) + 8; end > 64 {
		t.Errorf("a plain miss's counters end at byte %d of its cell, past the first line", end)
	}
	if end := unsafe.Offsetof(s.readAround) + 8; end > 64 {
		t.Errorf("a visit's lock, sketch and tallies end at byte %d of the shard, past the first line", end)
	}
}
