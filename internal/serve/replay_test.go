package serve

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/admission.golden from this run")

// replayRNG is splitmix64, pinned here so the streams depend on their
// seed alone (math/rand's streams are not pinned across Go versions).
type replayRNG struct{ s uint64 }

func (r *replayRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *replayRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *replayRNG) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// logUniform draws from [lo, hi] with equal mass per octave.
func (r *replayRNG) logUniform(lo, hi int64) int64 {
	v := int64(math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi)+1)-math.Log(float64(lo)))))
	return min(max(v, lo), hi)
}

// zipfRank draws a rank of n with zipf(s) popularity, rank 0 the hottest.
func (r *replayRNG) zipfRank(n int, s float64) int {
	var sum float64
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
	}
	u, acc := r.float()*sum, 0.0
	for k := 1; k <= n; k++ {
		if acc += 1 / math.Pow(float64(k), s); u < acc {
			return k - 1
		}
	}
	return n - 1
}

// replayRequest is one logical read of a rank's stream.
type replayRequest struct {
	rank   int
	off, n int64
}

// The replayed multifile: 64 ranks of 128 KiB on 4 KiB FS blocks (32 KiB
// cache blocks), served through 2 shards of 16 blocks — 1/8 of the data,
// the ladder's serve-cold geometry at 1/8 scale. The hit column counts
// block lookups, so it cannot be compared across cache-block sizes: a
// window costs fewer lookups in larger blocks.
const (
	replayRanks    = 64
	replayPerRank  = 128 << 10
	replayCache    = replayRanks * replayPerRank / 8
	replayRequests = 10000
)

// uniformStream is serve-cold's request mix: uniform ranks, windows
// log-uniform in 4–64 KiB at uniform offsets.
func uniformStream(seed uint64) []replayRequest {
	r := &replayRNG{s: seed}
	out := make([]replayRequest, replayRequests)
	for i := range out {
		n := r.logUniform(4<<10, 64<<10)
		out[i] = replayRequest{int(r.intn(replayRanks)), r.intn(replayPerRank - n + 1), n}
	}
	return out
}

// zipfBurstStream is tab6's: clients of zipf(1.2)-popular ranks, each four
// 2 KiB windows of its rank; every 16th client then streams the whole
// rank in 64 KiB reads.
func zipfBurstStream(seed uint64) []replayRequest {
	r := &replayRNG{s: seed}
	var out []replayRequest
	for c := 0; len(out) < replayRequests; c++ {
		rank := r.zipfRank(replayRanks, 1.2)
		for w := 0; w < 4; w++ {
			out = append(out, replayRequest{rank, r.intn(replayPerRank - 2048 + 1), 2048})
		}
		if c%16 == 15 {
			for off := int64(0); off < replayPerRank; off += 64 << 10 {
				out = append(out, replayRequest{rank, off, 64 << 10})
			}
		}
	}
	return out[:replayRequests]
}

// replayRow serves stream through a fresh Server and formats its counts.
func replayRow(t *testing.T, fsys fsio.FileSystem, name string, stream []replayRequest) string {
	t.Helper()
	s, err := New(fsys, "replay.sion", &Config{CacheBytes: replayCache, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	handles := make([]*Handle, replayRanks)
	for g := range handles {
		if handles[g], err = s.Open(g); err != nil {
			t.Fatal(err)
		}
	}
	p := make([]byte, 64<<10)
	for i, q := range stream {
		if _, err := handles[q.rank].ReadLogicalAt(p[:q.n], q.off); err != nil {
			t.Fatalf("%s request %d: %v", name, i, err)
		}
	}
	st := s.Stats()
	per1k := func(v int64) float64 { return float64(v) * 1000 / float64(len(stream)) }
	return fmt.Sprintf("%-14s %6d %8.4f %10.1f %12.1f %13.1f %12.4f",
		name, len(stream), float64(st.Hits)/float64(st.Hits+st.Misses),
		per1k(st.Evictions), per1k(st.ReadAround), per1k(st.BackendReads),
		float64(st.BackendBytes)/float64(st.ServedBytes))
}

// TestAdmissionReplay replays two seeded single-client streams through a
// Server on fsio.OS and compares what the cache did with the committed
// golden, exactly: hit ratio, evictions, read-arounds and backend reads
// per 1k requests, and backend bytes per served byte. The counts depend on
// the streams, the geometry and the admission rule alone, not on the
// host. -update rewrites the golden.
func TestAdmissionReplay(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(replayRanks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "replay.sion", sion.WriteMode, &sion.Options{
			ChunkSize: replayPerRank, FSBlockSize: 4096, NFiles: 1,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), replayPerRank)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %8s %10s %12s %13s %12s\n",
		"stream", "reqs", "hit", "evict/1k", "around/1k", "backend/1k", "bytes/byte")
	for _, seed := range []uint64{41, 42} {
		fmt.Fprintln(&b, replayRow(t, fsys, fmt.Sprint("uniform-", seed), uniformStream(seed)))
		fmt.Fprintln(&b, replayRow(t, fsys, fmt.Sprint("zipf-burst-", seed), zipfBurstStream(seed)))
	}
	got := b.String()
	path := filepath.Join("testdata", "admission.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Fatalf("replay differs from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
