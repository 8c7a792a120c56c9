package serve_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/serving.golden and testdata/ablation.golden from this run")

// splitmix is splitmix64, pinned here so the streams depend on their seed
// alone (math/rand's streams are not pinned across Go versions).
type splitmix struct{ s uint64 }

// ladderRNG seeds a splitmix as the ladder (bench/spec.go newRNG) does.
func ladderRNG(seed int64, stream uint64) *splitmix {
	r := &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// logUniform draws from [lo, hi] with equal mass per octave.
func (r *splitmix) logUniform(lo, hi int64) int64 {
	if lo >= hi {
		return lo
	}
	v := int64(math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi)+1)-math.Log(float64(lo)))))
	return min(max(v, lo), hi)
}

// ladderSpec is one ladder workload's serving side (bench/spec.go),
// restated: the dump's geometry, the request mix and the cache budget.
type ladderSpec struct {
	name           string
	tasks          int
	perTask, chunk int64
	skew           float64 // zipf exponent over ranks; 0 = uniform
	reqMin, reqMax int64
	cache          int64
}

// ladderSpecs are the four ladder workloads at a quarter of their data:
// the 64-task ones with 16 tasks, ckpt-large with chunks and ranks of a
// quarter the size; chunk sizes, request sizes and the cache's share of
// the data as on the ladder. FS blocks are 4 KiB, so every chunk starts
// 4 KiB (metablock 1) past a multiple of its size.
var ladderSpecs = []ladderSpec{
	{"ckpt-large", 8, 4 << 20, 2 << 20, 0, 256 << 10, 1 << 20, 8 << 20},
	{"ckpt-small", 16, 512 << 10, 64 << 10, 1.1, 64, 4 << 10, 16 << 20},
	{"serve-hot", 16, 1 << 20, 256 << 10, 1.1, 4 << 10, 64 << 10, 64 << 20},
	{"serve-cold", 16, 1 << 20, 256 << 10, 0, 4 << 10, 64 << 10, 2 << 20},
}

// TestLadderSpecsFollowBench parses bench/spec.go, read only, and checks
// that ladderSpecs still restates each ladder workload: its rank skew,
// request sizes and chunk size (ckpt-large's at a quarter), and its
// cache's share of the data.
func TestLadderSpecsFollowBench(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "..", "bench", "spec.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bench := map[string]map[string]constant.Value{} // workload → field → value
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || vs.Names[0].Name != "workloads" {
			return true
		}
		for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
			fields := map[string]constant.Value{}
			for _, kv := range el.(*ast.CompositeLit).Elts {
				kv := kv.(*ast.KeyValueExpr)
				tv, err := types.Eval(fset, nil, token.NoPos, types.ExprString(kv.Value))
				if err != nil {
					t.Fatalf("bench/spec.go: %s: %v", kv.Key, err)
				}
				fields[kv.Key.(*ast.Ident).Name] = tv.Value
			}
			bench[constant.StringVal(fields["Name"])] = fields
		}
		return false
	})
	if len(bench) != len(ladderSpecs) {
		t.Fatalf("bench/spec.go declares %d workloads, ladderSpecs %d", len(bench), len(ladderSpecs))
	}
	for _, sp := range ladderSpecs {
		w, ok := bench[sp.name]
		if !ok {
			t.Errorf("bench/spec.go has no workload %s", sp.name)
			continue
		}
		num := func(field string) float64 {
			v, _ := constant.Float64Val(constant.ToFloat(w[field]))
			return v
		}
		chunk := num("ChunkSize")
		if sp.name == "ckpt-large" {
			chunk /= 4
		}
		for _, c := range []struct {
			field     string
			got, want float64
		}{
			{"RankSkew", sp.skew, num("RankSkew")},
			{"ReqMin", float64(sp.reqMin), num("ReqMin")},
			{"ReqMax", float64(sp.reqMax), num("ReqMax")},
			{"ChunkSize", float64(sp.chunk), chunk},
			{"CacheBytes/DumpBytes", float64(sp.cache) / float64(int64(sp.tasks)*sp.perTask), num("CacheBytes") / (num("Tasks") * num("BytesPerTask"))},
		} {
			if c.got != c.want {
				t.Errorf("%s: ladderSpecs has %s %v, bench/spec.go %v", sp.name, c.field, c.got, c.want)
			}
		}
	}
}

// ladderRequests, ladderScan and ladderNodes are the replay's length, the
// warm scan's window (bench/serving.go scanPiece) and the cluster's size.
const (
	ladderRequests = 2000
	ladderScan     = 256 << 10
	ladderNodes    = 3
)

// ladderStream is client 0's request stream under seed 1, as the ladder's
// requestGen draws it.
func ladderStream(sp ladderSpec) []workload.Request {
	r := ladderRNG(1, 3<<32)
	var cum []float64
	var perm []int
	if sp.skew > 0 {
		cum = make([]float64, sp.tasks)
		sum := 0.0
		for k := range cum {
			sum += 1 / math.Pow(float64(k+1), sp.skew)
			cum[k] = sum
		}
		for k := range cum {
			cum[k] /= sum
		}
		pr := ladderRNG(1, 4<<32)
		perm = make([]int, sp.tasks)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := pr.intn(int64(i + 1))
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	out := make([]workload.Request, ladderRequests)
	for i := range out {
		var rank int
		if cum != nil {
			rank = perm[min(sort.SearchFloat64s(cum, r.float()), len(perm)-1)]
		} else {
			rank = int(r.intn(int64(sp.tasks)))
		}
		n := min(r.logUniform(sp.reqMin, sp.reqMax), sp.perTask)
		out[i] = workload.Request{Rank: rank, Off: r.intn(sp.perTask - n + 1), N: n}
	}
	return out
}

// The admission streams replay a multifile of 64 ranks of 128 KiB (one
// chunk each) through one server of 2 shards of 16 blocks: 1/8 of the
// data, the ladder's serve-cold geometry at 1/8 scale.
const (
	admissionRanks    = 64
	admissionPerRank  = 128 << 10
	admissionCache    = admissionRanks * admissionPerRank / 8
	admissionRequests = 10000
)

// zipfRank draws a rank of n with zipf(s) popularity, rank 0 the hottest.
func (r *splitmix) zipfRank(n int, s float64) int {
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

// uniformStream is serve-cold's request mix: uniform ranks, windows
// log-uniform in 4–64 KiB at uniform offsets.
func uniformStream(seed uint64) []workload.Request {
	r := &splitmix{s: seed}
	out := make([]workload.Request, admissionRequests)
	for i := range out {
		n := r.logUniform(4<<10, 64<<10)
		out[i] = workload.Request{Rank: int(r.intn(admissionRanks)), Off: r.intn(admissionPerRank - n + 1), N: n}
	}
	return out
}

// zipfLargeStream is skewed traffic of windows an FS block or more: ranks
// of zipf(1.1) popularity, windows log-uniform in 4–64 KiB at uniform
// offsets. A full shard decides on each window's blocks by frequency, so
// this stream is what admission exists for: its hot ranks should stay.
func zipfLargeStream(seed uint64) []workload.Request {
	r := &splitmix{s: seed}
	out := make([]workload.Request, admissionRequests)
	for i := range out {
		n := r.logUniform(4<<10, 64<<10)
		out[i] = workload.Request{Rank: r.zipfRank(admissionRanks, 1.1), Off: r.intn(admissionPerRank - n + 1), N: n}
	}
	return out
}

// zipfBurstStream is tab6's: clients of zipf(1.2)-popular ranks, each four
// 2 KiB windows of its rank; every 16th client then streams the whole
// rank in 64 KiB reads.
func zipfBurstStream(seed uint64) []workload.Request {
	r := &splitmix{s: seed}
	var out []workload.Request
	for c := 0; len(out) < admissionRequests; c++ {
		rank := r.zipfRank(admissionRanks, 1.2)
		for w := 0; w < 4; w++ {
			out = append(out, workload.Request{Rank: rank, Off: r.intn(admissionPerRank - 2048 + 1), N: 2048})
		}
		if c%16 == 15 {
			for off := int64(0); off < admissionPerRank; off += 64 << 10 {
				out = append(out, workload.Request{Rank: rank, Off: off, N: 64 << 10})
			}
		}
	}
	return out[:admissionRequests]
}

// scanStream is the warm scan: every rank of tasks read whole, in
// ladderScan windows.
func scanStream(tasks int, perTask int64) []workload.Request {
	var out []workload.Request
	for g := 0; g < tasks; g++ {
		for off := int64(0); off < perTask; off += ladderScan {
			out = append(out, workload.Request{Rank: g, Off: off, N: min(ladderScan, perTask-off)})
		}
	}
	return out
}

// writeReplayFile writes a one-file multifile of tasks ranks of perTask
// bytes in chunks of chunk bytes on 4 KiB FS blocks, and returns what it
// wrote: rank g's bytes.
func writeReplayFile(t *testing.T, fsys fsio.FileSystem, name string, tasks int, perTask, chunk int64) func(g int) []byte {
	t.Helper()
	payload := make([][]byte, tasks)
	for g := range payload {
		payload[g] = make([]byte, perTask)
		for i := range payload[g] {
			payload[g][i] = byte(i*7 + g)
		}
	}
	mpi.Run(tasks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{
			ChunkSize: chunk, FSBlockSize: 4096, NFiles: 1,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(payload[c.Rank()]); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return func(g int) []byte { return payload[g] }
}

// servingRow formats one replayed stream's counts.
func servingRow(name, stack string, reqs int, c workload.Counts) string {
	per1k := func(v int64) float64 { return float64(v) * 1000 / float64(reqs) }
	return fmt.Sprintf("%-14s %-8s %6d %7.4f %8.1f %8.1f %8.1f %8.1f %7.1f %7.1f %9d %7.4f",
		name, stack, reqs, float64(c.Hits)/float64(c.Hits+c.Misses),
		per1k(c.Runs), per1k(c.BackendReads), per1k(c.Evictions), per1k(c.ReadAround),
		per1k(c.Probes), per1k(c.PeerFills), c.CachedBytes,
		float64(c.BackendBytes)/float64(c.ServedBytes))
}

// ladderCluster joins ladderNodes nodes over name, each with a third of
// cache in whole FS blocks, as the ladder splits it.
func ladderCluster(t *testing.T, fsys fsio.FileSystem, name string, cache int64, ablate func(*serve.Config)) (*cluster.Cluster, func(id string)) {
	cl := cluster.New(nil)
	t.Cleanup(func() { cl.Close() })
	join := func(id string) {
		cfg := serve.Config{CacheBytes: (cache/ladderNodes + 4095) / 4096 * 4096}
		ablate(&cfg)
		if _, err := cl.Join(id, fsys, name, &cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ladderNodes; i++ {
		join(fmt.Sprint("n", i))
	}
	return cl, join
}

// servingTable replays every stream through its stacks and formats the
// rows of testdata/serving.golden; ablate edits every serve.Config first.
func servingTable(t *testing.T, ablate func(*serve.Config)) string {
	dir := t.TempDir()
	fsys := fsio.NewOS(dir)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-8s %6s %7s %8s %8s %8s %8s %7s %7s %9s %7s\n",
		"workload", "stack", "reqs", "hit", "runs/1k", "reads/1k", "evict/1k", "around/1k",
		"probe/1k", "fill/1k", "resident", "B/B")
	server := func(name string, cfg serve.Config) workload.Stack {
		ablate(&cfg)
		s, err := serve.New(fsys, name, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return workload.Server(s)
	}
	// measure reads scan and then stream through st, and returns what the
	// stream alone cost.
	measure := func(st workload.Stack, want func(int) []byte, scan, stream []workload.Request, at func(int)) workload.Counts {
		if _, err := workload.Replay(st, scan, want, nil); err != nil {
			t.Fatal(err)
		}
		c, err := workload.Replay(st, stream, want, at)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, sp := range ladderSpecs {
		name := sp.name + ".sion"
		want := writeReplayFile(t, fsys, name, sp.tasks, sp.perTask, sp.chunk)
		scan, stream := scanStream(sp.tasks, sp.perTask), ladderStream(sp)
		row := func(stack string, st workload.Stack, at func(int)) {
			fmt.Fprintln(&b, servingRow(sp.name, stack, len(stream), measure(st, want, scan, stream, at)))
		}
		row("server", server(name, serve.Config{CacheBytes: sp.cache}), nil)
		cl, _ := ladderCluster(t, fsys, name, sp.cache, ablate)
		row("cluster", workload.Cluster(cl), nil)
		cl.Close()
		// churn: n1 leaves a third of the way in and rejoins, empty, at two
		// thirds; its granules move to their successors and back.
		cl, join := ladderCluster(t, fsys, name, sp.cache, ablate)
		row("churn", workload.Cluster(cl), func(i int) {
			switch i {
			case len(stream) / 3:
				if err := cl.Leave("n1"); err != nil {
					t.Fatal(err)
				}
			case 2 * len(stream) / 3:
				join("n1")
			}
		})
		cl.Close()
		os.Remove(filepath.Join(dir, name))
	}
	want := writeReplayFile(t, fsys, "admission.sion", admissionRanks, admissionPerRank, admissionPerRank)
	for _, seed := range []uint64{41, 42} {
		for _, s := range []struct {
			name   string
			stream []workload.Request
		}{{"uniform-", uniformStream(seed)}, {"zipf-large-", zipfLargeStream(seed)}, {"zipf-burst-", zipfBurstStream(seed)}} {
			st := server("admission.sion", serve.Config{CacheBytes: admissionCache, Shards: 2})
			c := measure(st, want, nil, s.stream, nil)
			fmt.Fprintln(&b, servingRow(fmt.Sprint(s.name, seed), "server", len(s.stream), c))
		}
	}
	return b.String()
}

// TestServingReplay replays the ladder's four workloads (ladderSpecs,
// each after a warm scan) through one server, a 3-node cluster splitting
// its cache, and the same cluster with one node leaving and rejoining
// mid-stream, and three seeded admission streams through a small server,
// all sequentially on fsio.OS through workload.Replay, which checks every
// byte read against the payload written. It compares what each stack did
// with testdata/serving.golden exactly: per 1k requests the block-lookup hit
// ratio, runs (node calls; a server's are the layout's pieces), backend
// reads, evictions, read-arounds, peer probes and peer fills; the bytes
// resident at the end; and backend bytes per served byte. The counts
// depend on the streams, the geometry and the serving rules alone, not on
// the host. -update rewrites the golden.
func TestServingReplay(t *testing.T) {
	got := servingTable(t, func(*serve.Config) {})
	path := filepath.Join("testdata", "serving.golden")
	if *update {
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

// TestServingAblation switches the serving mechanisms off one at a time,
// replays serving.golden's streams and compares the rows that move with
// testdata/ablation.golden: serving.golden's header, then per mechanism
// its name and each moved row as a "- " line (the golden's) and a "+ "
// line (without the mechanism). A mechanism whose ablation moves no row
// on any workload does not pay and was deleted; each one left here must
// move a row. -update rewrites the golden; internal/README.md's ablation
// region is rendered from it.
func TestServingAblation(t *testing.T) {
	if serve.RaceEnabled {
		t.Skip("five sequential replays: the race detector has nothing to find in them and multiplies their time")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "serving.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(golden), "\n")
	mechanisms := []struct {
		name   string
		ablate func(*serve.Config)
	}{
		{"span bridging", func(c *serve.Config) { c.MaxSpanGap = -1 }},
		{"partial valid ranges", serve.AblateWholeFills},
		{"sketch of 4 counters a block", serve.AblateSketchHalfSize},
		{"sketch never halved", serve.AblateSketchNoHalving},
		{"one shard by default", func(c *serve.Config) { c.Shards = max(c.Shards, 1) }},
	}
	path := filepath.Join("testdata", "ablation.golden")
	header := "  " + want[0] + "\n"
	recorded := map[string]string{} // mechanism → its moved rows in the golden
	if !*update {
		prev, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record it)", err)
		}
		rows, ok := strings.CutPrefix(string(prev), header)
		if !ok {
			t.Fatalf("%s does not start with serving.golden's header", path)
		}
		var names []string
		for _, l := range strings.SplitAfter(rows, "\n") {
			switch {
			case l == "":
			case strings.HasPrefix(l, "- ") || strings.HasPrefix(l, "+ "):
				if len(names) == 0 {
					t.Fatalf("%s: a row before the first mechanism", path)
				}
				recorded[names[len(names)-1]] += l
			default:
				names = append(names, strings.TrimSuffix(l, "\n"))
			}
		}
		if len(names) != len(mechanisms) { // each subtest checks its own section
			t.Fatalf("%s lists the mechanisms %q; the test switches off %d", path, names, len(mechanisms))
		}
	}
	moves := make([]string, len(mechanisms)) // each mechanism's section of the golden
	t.Cleanup(func() {
		if *update && !slices.Contains(moves, "") { // not under a -run filter
			if err := os.WriteFile(path, []byte(header+strings.Join(moves, "")), 0o644); err != nil {
				t.Error(err)
			}
		}
	})
	for i, k := range mechanisms {
		i, k := i, k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			got := strings.Split(servingTable(t, k.ablate), "\n")
			var b strings.Builder
			for j := range got {
				if got[j] != want[j] {
					fmt.Fprintf(&b, "- %s\n+ %s\n", want[j], got[j])
				}
			}
			if b.Len() == 0 {
				t.Errorf("no row moves without %s: it does not pay", k.name)
				return
			}
			t.Logf("rows moved:\n%s", b.String())
			moves[i] = k.name + "\n" + b.String()
			if !*update && b.String() != recorded[k.name] {
				t.Errorf("rows moved without %s differ from %s; after review, rerun with -update:\ngot:\n%swant:\n%s", k.name, path, b.String(), recorded[k.name])
			}
		})
	}
}
