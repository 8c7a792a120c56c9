package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

var testSionserve string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sionbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testSionserve, _, err = buildSionserve(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny shrinks a workload to smoke-test size, keeping its shape.
func tiny(sp spec) spec {
	sp.Tasks = min(sp.Tasks, 8)
	sp.BytesPerTask = max(sp.BytesPerTask/64, 64<<10)
	sp.ChunkSize = max(sp.ChunkSize/64, 16<<10)
	sp.Readers = min(sp.Readers, 2)
	sp.ReqMax = int(min(int64(sp.ReqMax), sp.BytesPerTask))
	sp.ReqMin = min(sp.ReqMin, sp.ReqMax)
	sp.CacheBytes = max(sp.CacheBytes/64, 128<<10)
	return sp
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the metric table; the two must agree,
// and the table must stay inside the benchmark contract's limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric table; regenerate it with -manifest")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Layer == "" && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Layer != "" && !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s is not named after its layer %s", d.Name, d.Layer)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
}

// The traced run must measure the same program: a dump written through
// the timing decorator is byte-identical to one written without it, and
// the layers above issue exactly the same fsio calls either way.
func TestDecoratorIsTransparent(t *testing.T) {
	dir := t.TempDir()
	tl := &tally{}
	osfs := newPageCacheFS(dir, &tl.syncs)
	sp := tiny(*workloadByName("ckpt-small"))
	j := newJob(&sp, 1)
	k := &ckpt{job: j, dir: dir, os: osfs, tally: tl}
	dump := func(name string, fsys fsio.FileSystem, opts sion.Options) {
		mpi.Run(sp.Tasks, func(c *mpi.Comm) {
			k.writeBody(name, opts)(c, &rankCtx{fsys: fsys})
		})
	}
	counting := func(inner fsio.FileSystem) *timedFS {
		return &timedFS{inner: inner, c: &fsCounters{}, blk: osfs.BlockSize("x")}
	}
	for _, opts := range []sion.Options{k.optsP1(), k.optsP2()} {
		dump("plain.sion", osfs, opts)
		alone := counting(osfs)
		dump("alone.sion", alone, opts)
		under := counting(osfs)
		dump("under.sion", counting(under), opts)
		for _, name := range []string{"alone.sion", "under.sion"} {
			if err := sameFile(filepath.Join(dir, "plain.sion"), filepath.Join(dir, name)); err != nil {
				t.Errorf("collector group %d: %v", opts.CollectorGroup, err)
			}
		}
		for class := 0; class < opClasses; class++ {
			a, u := alone.c.calls[class].Load(), under.c.calls[class].Load()
			if a != u || (a == 0 && class != opRead) {
				t.Errorf("collector group %d, op class %d: %d calls alone, %d under a second decorator", opts.CollectorGroup, class, a, u)
			}
			if a, u := alone.c.bytes[class].Load(), under.c.bytes[class].Load(); a != u {
				t.Errorf("collector group %d, op class %d: %d bytes alone, %d under a second decorator", opts.CollectorGroup, class, a, u)
			}
		}
	}
	if tl.failed.Load() != 0 {
		t.Errorf("%d operations failed", tl.failed.Load())
	}
	fs := counting(osfs)
	if got, want := fsio.CapabilitiesOf(fs), fsio.CapabilitiesOf(fsio.NewOS(dir)); !reflect.DeepEqual(got, want) {
		t.Errorf("capabilities through the decorator: %+v, want %+v", got, want)
	}
	if got, want := fs.BlockSize("x"), osfs.BlockSize("x"); got != want {
		t.Errorf("BlockSize through the decorator: %d, want %d", got, want)
	}
}

// Payload, records and requests are pure functions of the seed.
func TestGeneratorsArePure(t *testing.T) {
	for _, w := range workloads {
		sp := tiny(w)
		for g := 0; g < sp.Tasks; g += 3 {
			if !bytes.Equal(genPayload(&sp, 7, g), genPayload(&sp, 7, g)) || bytes.Equal(genPayload(&sp, 7, g), genPayload(&sp, 8, g)) {
				t.Errorf("%s: payload of rank %d does not follow the seed", sp.Name, g)
			}
			recs := genRecords(&sp, 7, g)
			if !reflect.DeepEqual(recs, genRecords(&sp, 7, g)) || recs[len(recs)-1] != sp.BytesPerTask {
				t.Errorf("%s: records of rank %d do not follow the seed or do not cover the stream", sp.Name, g)
			}
		}
		a, b, c := newRequestGen(&sp, 7, 1), newRequestGen(&sp, 7, 1), newRequestGen(&sp, 8, 1)
		differs := false
		for i := 0; i < 1000; i++ {
			ra, rb, rc := a.next(), b.next(), c.next()
			if ra != rb {
				t.Fatalf("%s: request %d differs under one seed", sp.Name, i)
			}
			if ra.Rank < 0 || ra.Rank >= sp.Tasks || ra.N < 1 || ra.Off < 0 || ra.Off+int64(ra.N) > sp.BytesPerTask {
				t.Fatalf("%s: request %d out of range: %+v", sp.Name, i, ra)
			}
			differs = differs || ra != rc
		}
		if !differs {
			t.Errorf("%s: requests ignore the seed", sp.Name)
		}
	}
}

// Every workload, untraced and traced, at tiny counts: each declared
// metric is emitted, finite, under its declared unit, and nothing else is;
// no operation fails; the span tree is well formed.
func TestSmoke(t *testing.T) {
	jan := &janitor{}
	defer jan.sweep()
	e := &env{dir: t.TempDir(), sionserve: testSionserve, clients: 2, jan: jan, worlds: 2, mpiRounds: 20, tracedReqs: 200}
	for _, w := range workloads {
		sp := tiny(w)
		for _, trace := range []bool{false, true} {
			res, spans, err := runWorkload(e, &sp, 3, 0.4, trace)
			if err != nil {
				t.Fatalf("%s trace %v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed", sp.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %v: %d metrics emitted, %d declared", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s trace %v: %s = %+v (emitted %v)", sp.Name, trace, d.Name, v, ok)
				}
				if d.Layer == "" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", sp.Name, d.Name, v.Value)
				}
			}
			line, err := res.lastLine()
			if err != nil {
				t.Fatal(err)
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal(line, &last); err != nil || len(last) != 4 {
				t.Errorf("%s: last line %s: %v", sp.Name, line, err)
			}
			if trace {
				checkSpanTree(t, sp.Name, spans)
			}
		}
	}
	if len(jan.procs) != 0 {
		t.Errorf("%d subprocesses still registered", len(jan.procs))
	}
}

func checkSpanTree(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", workload)
	}
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("%s: span id %d used twice or zero", workload, s.ID)
		}
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	subtree := map[int32]int64{} // task span → Σ self of its subtree
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, s.ID, s.Name)
		}
		if self[s.ID] < 0 {
			t.Errorf("%s: span %d (%s) has negative self time", workload, s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("%s: span %d (%s) has unknown parent %d", workload, s.ID, s.Name, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d (%s) [%d, %d] is outside its parent %s [%d, %d]", workload, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		// Walk up to the rank's task span, if the span is under one.
		for id := s.ID; id != 0; id = byID[id].Parent {
			if strings.HasSuffix(byID[id].Name, ".task") {
				subtree[id] += self[s.ID]
				break
			}
		}
	}
	if len(subtree) == 0 {
		t.Errorf("%s: no task spans", workload)
	}
	// On one goroutine, spans nest and do not overlap, so the self times
	// of a task's subtree add up to the task.
	for id, sum := range subtree {
		d := byID[id].End - byID[id].Start
		if diff := math.Abs(float64(sum - d)); diff > 0.01*float64(d) {
			t.Errorf("%s: task span %d lasts %d ns, its subtree's self times sum to %d ns", workload, id, d, sum)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	series := func(center, width float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center + width*(float64(i)-4.5)/9
		}
		return out
	}
	higher := metricDef{Better: "higher", Bound: 0.10}
	lower := metricDef{Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{higher, series(100, 2), series(99, 2), verdictOK},
		{higher, series(100, 2), series(85, 2), verdictRegressed},
		{higher, series(100, 2), series(120, 2), verdictOK},
		{lower, series(100, 2), series(120, 2), verdictRegressed},
		{lower, series(100, 2), series(85, 2), verdictOK},
		{higher, series(100, 40), series(99, 2), verdictUnresolved},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s better, A around %v, B around %v: %s, want %s", c.d.Better, c.a[5], c.b[5], got, c.want)
		}
	}
}
