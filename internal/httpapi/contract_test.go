package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/simfs"
)

// The contract suite: every test below runs the same cases against the
// API mounted on a one-node *cluster.Cluster — sionserve's default — and
// on a 3-node ring. What a client can observe — status codes, headers,
// body bytes, JSON shapes — is one contract, however many nodes answer
// behind it.

// payload is the deterministic per-rank content of the test multifiles.
func payload(rank, size int) []byte {
	p := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

const (
	rawRanks = 3    // ranks 0..2 hold perRank raw payload bytes
	perRank  = 5000 // spans three 2048-byte chunks
	keyRankA = 3    // key records: 7 → payload(30,300)+payload(31,100), 9 → payload(32,50)
	keyRankB = 4    // key records: 7 → payload(40,200)
	nRanks   = 5

	// bigBytes spans several serveChunk windows with an odd remainder, so
	// the streaming loop's chunk arithmetic and tail handling are both
	// exercised.
	bigBytes = 2*serveChunk + serveChunk/2 + 37
)

// writeData writes the 5-rank multifile "data" described above.
func writeData(t *testing.T, fsys fsio.FileSystem) {
	t.Helper()
	mpi.Run(nRanks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "data", sion.WriteMode, &sion.Options{ChunkSize: 2048})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		switch r := c.Rank(); r {
		case keyRankA, keyRankB:
			w, err := sion.NewKeyWriter(f)
			if err != nil {
				t.Errorf("rank %d: NewKeyWriter: %v", r, err)
				break
			}
			type rec struct {
				key  uint64
				data []byte
			}
			recs := []rec{{7, payload(40, 200)}}
			if r == keyRankA {
				recs = []rec{{7, payload(30, 300)}, {9, payload(32, 50)}, {7, payload(31, 100)}}
			}
			for _, rec := range recs {
				if err := w.WriteKey(rec.key, rec.data); err != nil {
					t.Errorf("rank %d: WriteKey: %v", r, err)
				}
			}
		default:
			if _, err := f.Write(payload(r, perRank)); err != nil {
				t.Errorf("rank %d: Write: %v", r, err)
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})
}

// writeBig writes the single-rank multifile "big", larger than serveChunk.
func writeBig(t *testing.T, fsys fsio.FileSystem) {
	t.Helper()
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "big", sion.WriteMode, &sion.Options{ChunkSize: 1 << 20})
		if err != nil {
			t.Errorf("ParOpen: %v", err)
			return
		}
		if _, err := f.Write(payload(0, int(bigBytes))); err != nil {
			t.Errorf("Write: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// gateFS parks backend reads while shut: each blocked ReadAt announces
// itself on parked and waits for open to be closed.
type gateFS struct {
	fsio.FileSystem
	shut   atomic.Bool
	parked chan struct{}
	open   chan struct{}
}

func (g *gateFS) Open(name string) (fsio.File, error) {
	f, err := g.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	fsio.File
	g *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.shut.Load() {
		select {
		case f.g.parked <- struct{}{}:
		default:
		}
		<-f.g.open
	}
	return f.File.ReadAt(p, off)
}

// fixture is the API over one topology plus the handles the tests steer
// its backend with.
type fixture struct {
	api   *API
	c     *cluster.Cluster
	h     http.Handler // api.Handler(), the middleware-wrapped mux
	flaky *simfs.Flaky
	gate  *gateFS
}

// topologies are the cluster shapes the suite runs against: "server" is
// one node, the topology sionserve runs by default; "cluster" is a 3-node
// ring.
var topologies = []struct {
	name  string
	nodes int
}{{"server", 1}, {"cluster", 3}}

// families maps /metrics family names to the value the cluster's Stats
// reports for them.
func (f *fixture) families() map[string]int64 {
	st := f.c.Stats()
	return map[string]int64{
		"cluster_requests_total":        st.Requests,
		"cluster_failovers_total":       st.Failovers,
		"cluster_peer_probes_total":     st.PeerProbes,
		"cluster_handles_opened_total":  st.Serve.HandlesOpened,
		"serve_cache_hits_total":        st.Serve.Hits,
		"serve_cache_misses_total":      st.Serve.Misses,
		"serve_backend_reads_total":     st.Serve.BackendReads,
		"serve_backend_bytes_total":     st.Serve.BackendBytes,
		"serve_served_bytes_total":      st.Serve.ServedBytes,
		"serve_cache_read_around_total": st.Serve.ReadAround,
	}
}

// strictDecode unmarshals a JSON body, rejecting fields the type lacks —
// /stats is decoded by clients (bench/) into serve.Stats, so a renamed or
// nested field is a wire break.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// eachTopology runs fn as a subtest per topology over the multifile `name`
// ("data" or "big"). The backend stack is serve → gate → flaky → fsio
// meter → OS, with retries off (one failing request is one breaker
// failure, so state walks stay exact) and a tight breaker. Each node's
// cache holds fl.CacheMB MiB (0: serve's default).
func eachTopology(t *testing.T, name string, fl Flags, fn func(t *testing.T, f *fixture)) {
	t.Helper()
	for _, tp := range topologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			osfs := fsio.NewOS(t.TempDir())
			if name == "big" {
				writeBig(t, osfs)
			} else {
				writeData(t, osfs)
			}
			tl, err := sion.LoadTailLayout(osfs, name)
			if err != nil {
				t.Fatal(err)
			}
			tl.Close()
			lay := tl.Layout()
			reg := obs.NewRegistry()
			flaky := simfs.NewFlaky(simfs.FlakyConfig{Seed: 404})
			gate := &gateFS{
				FileSystem: flaky.Wrap(fsio.Instrument(osfs, fsio.NewMeter(reg, "os")), nil),
				parked:     make(chan struct{}, 1),
				open:       make(chan struct{}),
			}
			scfg := serve.Config{
				CacheBytes: fl.CacheMB << 20,
				// One cache block per FS block: a block of rank B's then holds
				// none of rank A's bytes (TestKeyIndexBuildsPerRank).
				BlockBytes:       lay.FSBlockSize(),
				Retry:            &resil.Budget{MaxAttempts: 1, Sleep: func(time.Duration) {}},
				BreakerThreshold: 2,
				BreakerCooldown:  3,
			}
			c := cluster.New(reg)
			t.Cleanup(func() { c.Close() })
			for i := 1; i <= tp.nodes; i++ {
				if _, err := c.Join(fmt.Sprintf("n%d", i), gate, name, &scfg); err != nil {
					t.Fatalf("Join n%d: %v", i, err)
				}
			}
			f := &fixture{api: New(c, &fl), c: c, flaky: flaky, gate: gate}
			f.h = f.api.Handler()
			fn(t, f)
		})
	}
}

func (f *fixture) do(method, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec
}

func (f *fixture) get(url string) *httptest.ResponseRecorder { return f.do("GET", url) }

// logRecord is one captured log line: its message and its attributes.
type logRecord struct {
	Msg   string
	Attrs map[string]slog.Value
}

// hasKeys reports whether the record carries every named attribute.
func (r logRecord) hasKeys(keys ...string) bool {
	for _, k := range keys {
		if _, ok := r.Attrs[k]; !ok {
			return false
		}
	}
	return true
}

// logCapture is a slog.Handler that keeps every record and writes none.
type logCapture struct {
	mu   sync.Mutex
	recs []logRecord
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{Msg: r.Message, Attrs: make(map[string]slog.Value)}
	r.Attrs(func(a slog.Attr) bool {
		rec.Attrs[a.Key] = a.Value
		return true
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
	return nil
}

// captureLog points the API's logger, and the handler built over it, at a
// capture the test reads records from.
func (f *fixture) captureLog() *logCapture {
	c := new(logCapture)
	f.api.Log = slog.New(c)
	f.h = f.api.Handler()
	return c
}

// wantBody checks a 200 byte response: exact Content-Length, the
// octet-stream type, and byte identity.
func wantBody(t *testing.T, url string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rec.Code != 200 {
		t.Fatalf("%s: status %d (body %q)", url, rec.Code, rec.Body.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length %q, want %d", url, cl, len(want))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("%s: Content-Type %q", url, ct)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: body mismatch (%d bytes, want %d)", url, rec.Body.Len(), len(want))
	}
}

// TestRankWindows pins the windowed-read contract: byte identity,
// Content-Length, 400 for malformed values, 416 outside [0, size],
// clamping past the end, the empty window at off == size.
func TestRankWindows(t *testing.T) {
	full := payload(1, perRank)
	cases := []struct {
		name   string
		url    string
		status int
		want   []byte // checked when status is 200
	}{
		{"whole stream", "/rank/1", 200, full},
		{"window", "/rank/1?off=100&n=50", 200, full[100:150]},
		{"offset to end", fmt.Sprintf("/rank/1?off=%d", perRank-7), 200, full[perRank-7:]},
		{"empty window at end", fmt.Sprintf("/rank/1?off=%d", perRank), 200, []byte{}},
		{"count clamped to tail", fmt.Sprintf("/rank/1?off=%d&n=9999", perRank-3), 200, full[perRank-3:]},
		{"zero count", "/rank/1?off=5&n=0", 200, []byte{}},
		{"off past end", fmt.Sprintf("/rank/1?off=%d", perRank+1), 416, nil},
		{"negative off", "/rank/1?off=-1", 416, nil},
		{"huge off", "/rank/1?off=92233720368547758070", 400, nil}, // overflows int64 → malformed
		{"non-integer off", "/rank/1?off=abc", 400, nil},
		{"negative n", "/rank/1?n=-1", 400, nil},
		{"non-integer n", "/rank/1?n=x", 400, nil},
		{"unknown rank", "/rank/99", 404, nil},
		{"non-integer rank", "/rank/zzz", 400, nil},
		{"unknown sub-path", "/rank/1/bogus", 404, nil},
	}
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				rec := f.get(tc.url)
				if rec.Code != tc.status {
					t.Fatalf("%s: status %d, want %d (body %q)", tc.url, rec.Code, tc.status, rec.Body.String())
				}
				if tc.status == 200 {
					wantBody(t, tc.url, rec, tc.want)
				}
			})
		}
	})
}

// TestRanksAndStats pins the two JSON summaries: /ranks lists every rank
// with its physical file and logical size; /stats decodes, strictly, into
// a flat serve.Stats whose ServedBytes moves by exactly the body bytes
// clients received — the books bench/ keeps against sionserve — and whose
// HandlesOpened counts the sessions the reads opened.
func TestRanksAndStats(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		rec := f.get("/ranks")
		if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("/ranks: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		var ranks struct {
			Name  string `json:"name"`
			Tasks int    `json:"tasks"`
			Files int    `json:"files"`
			FSBlk int64  `json:"fs_block_size"`
			Ranks []struct {
				Rank  int   `json:"rank"`
				File  int   `json:"file"`
				Bytes int64 `json:"bytes"`
			} `json:"ranks"`
		}
		if err := strictDecode(rec.Body.Bytes(), &ranks); err != nil {
			t.Fatalf("/ranks body: %v", err)
		}
		if ranks.Name != "data" || ranks.Tasks != nRanks || ranks.Files != 1 || ranks.FSBlk <= 0 || len(ranks.Ranks) != nRanks {
			t.Fatalf("/ranks = %+v", ranks)
		}
		for g, r := range ranks.Ranks[:rawRanks] {
			if r.Rank != g || r.File != 0 || r.Bytes != perRank {
				t.Errorf("/ranks entry %d = %+v, want rank %d in file 0 with %d bytes", g, r, g, perRank)
			}
		}

		stats := func() serve.Stats {
			t.Helper()
			rec := f.get("/stats")
			if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("/stats: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
			}
			var st serve.Stats
			if err := strictDecode(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("/stats body %s: %v", rec.Body.String(), err)
			}
			return st
		}
		before := stats()
		urls := []string{"/rank/0", "/rank/1?off=100&n=3000", "/rank/2?off=4990", "/rank/0?off=7&n=64"}
		var received int64
		for _, url := range urls {
			rec := f.get(url)
			if rec.Code != 200 {
				t.Fatalf("%s: status %d", url, rec.Code)
			}
			received += int64(rec.Body.Len())
		}
		after := stats()
		if got := after.ServedBytes - before.ServedBytes; got != received {
			t.Errorf("/stats counted %d served bytes, the GETs received %d", got, received)
		}
		if got := after.HandlesOpened - before.HandlesOpened; got != int64(len(urls)) {
			t.Errorf("/stats counted %d handles opened by %d reads", got, len(urls))
		}
		if after.Hits+after.Misses == 0 || after.BackendReads == 0 {
			t.Errorf("/stats after the reads = %+v, want the cache counters moving", after)
		}
	})
}

// TestKeys pins the key-value paths on both topologies (the router used
// to answer them with 400 "bad rank").
func TestKeys(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		rec := f.get(fmt.Sprintf("/rank/%d/keys", keyRankA))
		if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("keys: status %d, Content-Type %q (body %q)", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
		}
		var keys []uint64
		if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil || len(keys) != 2 || keys[0] != 7 || keys[1] != 9 {
			t.Fatalf("keys body %q (err %v), want [7, 9]", rec.Body.String(), err)
		}

		url := fmt.Sprintf("/rank/%d/key/7", keyRankA)
		rec = f.get(url)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d (body %q)", url, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("%s: Content-Type %q", url, ct)
		}
		if want := append(payload(30, 300), payload(31, 100)...); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: body mismatch (%d bytes, want key 7's two records, %d)", url, rec.Body.Len(), len(want))
		}

		for url, want := range map[string]int{
			fmt.Sprintf("/rank/%d/key/x", keyRankA):      400, // malformed key
			"/rank/0/keys":                               400, // a rank without key records
			"/rank/0/key/7":                              400,
			"/rank/99/keys":                              404,
			fmt.Sprintf("/rank/%d/keys/more", keyRankA):  404,
			fmt.Sprintf("/rank/%d/key/7/more", keyRankA): 404,
		} {
			if rec := f.get(url); rec.Code != want {
				t.Errorf("%s: status %d, want %d (body %q)", url, rec.Code, want, rec.Body.String())
			}
		}
	})
}

// TestKeyIndexBuildsPerRank pins the key-index locking: while rank A's
// index scan is parked inside a backend read, rank B's /keys (its blocks
// already cached) must complete — a build holds only its own rank's lock.
func TestKeyIndexBuildsPerRank(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		if rec := f.get(fmt.Sprintf("/rank/%d", keyRankB)); rec.Code != 200 {
			t.Fatalf("warming rank %d: status %d", keyRankB, rec.Code)
		}
		f.gate.shut.Store(true)
		aDone := make(chan int, 1)
		go func() { aDone <- f.get(fmt.Sprintf("/rank/%d/keys", keyRankA)).Code }()
		select {
		case <-f.gate.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("rank A's index scan never reached the backend")
		}

		bDone := make(chan int, 1)
		go func() { bDone <- f.get(fmt.Sprintf("/rank/%d/keys", keyRankB)).Code }()
		select {
		case code := <-bDone:
			if code != 200 {
				t.Errorf("rank B keys while rank A's scan is parked: status %d", code)
			}
		case <-time.After(5 * time.Second):
			t.Error("rank B's /keys is stuck behind rank A's index scan")
			defer func() { <-bDone }() // it finishes once the gate opens
		}

		close(f.gate.open)
		if code := <-aDone; code != 200 {
			t.Errorf("rank A keys after the gate opened: status %d", code)
		}
	})
}

// outage is a rule that fails every call on the physical file phys
// transiently.
func outage(phys string) func(fsio.Op) error {
	return func(op fsio.Op) error {
		if op.Name != phys {
			return nil
		}
		return fmt.Errorf("%s: outage: %w", phys, fsio.ErrTransient)
	}
}

// TestKeyIndexFailedBuildNotCached: an index scan interrupted by the
// backend is an error for that request only; the next request rebuilds.
func TestKeyIndexFailedBuildNotCached(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		phys := f.c.Layout().PhysicalName(0)
		f.flaky.SetRule(outage(phys))
		url := fmt.Sprintf("/rank/%d/keys", keyRankA)
		if rec := f.get(url); rec.Code < 400 {
			t.Fatalf("keys during the outage: status %d, want an error", rec.Code)
		}
		f.flaky.SetRule(nil)
		if rec := f.get(url); rec.Code != 200 || !strings.Contains(rec.Body.String(), "7") {
			t.Fatalf("keys after the outage: status %d (body %q), want the rebuilt index", rec.Code, rec.Body.String())
		}
	})
}

// TestReadOnlyMethods: the read endpoints answer only GET and HEAD;
// anything else is 405 + Allow, never a served body.
func TestReadOnlyMethods(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		for _, url := range []string{"/ranks", "/rank/0", "/rank/0?off=1&n=2",
			fmt.Sprintf("/rank/%d/keys", keyRankA), fmt.Sprintf("/rank/%d/key/7", keyRankA),
			"/stats", "/metrics", "/healthz"} {
			for _, method := range []string{"POST", "PUT", "DELETE", "PATCH"} {
				rec := f.do(method, url)
				if rec.Code != http.StatusMethodNotAllowed {
					t.Errorf("%s %s: status %d, want 405", method, url, rec.Code)
				}
				if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
					t.Errorf("%s %s: Allow %q", method, url, allow)
				}
			}
		}
		rec := f.do("HEAD", "/rank/0?off=10&n=20")
		if rec.Code != 200 || rec.Header().Get("Content-Length") != "20" {
			t.Errorf("HEAD window: status %d, Content-Length %q", rec.Code, rec.Header().Get("Content-Length"))
		}
		// A HEAD has no body to send, so it reads none: the whole rank is
		// described from the layout and the serving tier is not touched.
		before := f.families()
		rec = f.do("HEAD", "/rank/0")
		if rec.Code != 200 || rec.Header().Get("Content-Length") != strconv.Itoa(perRank) || rec.Body.Len() != 0 {
			t.Errorf("HEAD /rank/0: status %d, Content-Length %q, %d body bytes; want 200, %d, 0",
				rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len(), perRank)
		}
		after := f.families()
		for _, fam := range []string{"serve_served_bytes_total", "serve_cache_hits_total",
			"serve_cache_misses_total", "serve_backend_reads_total"} {
			if after[fam] != before[fam] {
				t.Errorf("HEAD /rank/0 moved %s %d -> %d, want it untouched", fam, before[fam], after[fam])
			}
		}
		for url, want := range map[string]int{
			"/rank/0?off=x":                          http.StatusBadRequest,
			"/rank/0?n=-1":                           http.StatusBadRequest,
			fmt.Sprintf("/rank/0?off=%d", perRank+1): http.StatusRequestedRangeNotSatisfiable,
		} {
			if rec := f.do("HEAD", url); rec.Code != want {
				t.Errorf("HEAD %s: status %d, want %d", url, rec.Code, want)
			}
		}
	})
}

// TestPprofMount: the profiling endpoints exist only under -pprof.
func TestPprofMount(t *testing.T) {
	for _, on := range []bool{false, true} {
		eachTopology(t, "data", Flags{Pprof: on}, func(t *testing.T, f *fixture) {
			want := 404
			if on {
				want = 200
			}
			if rec := f.get("/debug/pprof/cmdline"); rec.Code != want {
				t.Errorf("pprof=%v: /debug/pprof/cmdline status %d, want %d", on, rec.Code, want)
			}
		})
	}
}

// TestHealthzOK: a healthy cluster is 200/"ok" with one breaker entry per
// node, every circuit closed.
func TestHealthzOK(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		rec := f.get("/healthz")
		if rec.Code != http.StatusOK {
			t.Fatalf("healthy /healthz = %d, want 200", rec.Code)
		}
		var body struct {
			Status string               `json:"status"`
			Nodes  []cluster.NodeHealth `json:"nodes"`
		}
		if err := strictDecode(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body %s: %v", rec.Body.String(), err)
		}
		if body.Status != "ok" || len(body.Nodes) != len(f.c.NodeIDs()) {
			t.Fatalf("healthz body %s; want status ok and one entry per node", rec.Body.String())
		}
		for _, n := range body.Nodes {
			if n.Degraded || len(n.Files) == 0 {
				t.Fatalf("healthz node %+v; want a healthy node listing its files", n)
			}
		}
		if n := strings.Count(rec.Body.String(), `"state": "closed"`); n == 0 || strings.Contains(rec.Body.String(), `"state": "open"`) {
			t.Fatalf("healthz body %s; want every circuit closed", rec.Body.String())
		}
	})
}

// TestDegraded503 walks an outage: uncached reads fail (503 + Retry-After
// naming the condition), cached
// reads keep answering 200, /healthz flips to 503; after the outage the
// half-open probe closes the circuit and /healthz returns to 200.
func TestDegraded503(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		const cached, uncached = "/rank/0?off=0&n=64", "/rank/0?off=4600&n=64"
		warm := f.get(cached)
		wantBody(t, cached, warm, payload(0, perRank)[:64])
		phys := f.c.Layout().PhysicalName(0)
		f.flaky.SetRule(outage(phys))

		// The router fails a read over past every node it could go to, so
		// the first failed read already reports them all down (503), before
		// the threshold-2 breaker opens.
		for i := 0; i < 2; i++ {
			if rec := f.get(uncached); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("outage read %d = %d, want 503", i, rec.Code)
			}
		}

		// Open circuit: misses are 503 with a Retry-After hint...
		rec := f.get(uncached)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("degraded read = %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("degraded 503 missing Retry-After")
		}
		if !strings.Contains(rec.Body.String(), "degraded") {
			t.Fatalf("degraded body %q does not name the condition", rec.Body.String())
		}
		// ...cache hits still answer 200 with the right bytes...
		wantBody(t, cached, f.get(cached), payload(0, perRank)[:64])
		// ...and /healthz flips to 503/degraded naming the open file.
		hz := f.get("/healthz")
		if hz.Code != http.StatusServiceUnavailable || hz.Header().Get("Retry-After") == "" {
			t.Fatalf("degraded /healthz = %d (Retry-After %q), want 503 with the hint", hz.Code, hz.Header().Get("Retry-After"))
		}
		if !strings.Contains(hz.Body.String(), `"status": "degraded"`) || !strings.Contains(hz.Body.String(), `"state": "open"`) {
			t.Fatalf("healthz body %q does not show the open circuit", hz.Body.String())
		}

		// Recovery: lift the outage and walk the request-counted cooldown;
		// the half-open probe then succeeds and closes the circuit.
		f.flaky.SetRule(nil)
		for i := 0; f.get(uncached).Code != http.StatusOK; i++ {
			if i > 8 {
				t.Fatalf("no read succeeded after the outage: %s", f.get("/healthz").Body.String())
			}
		}
		wantBody(t, uncached, f.get(uncached), payload(0, perRank)[4600:4664])
		if hz := f.get("/healthz"); hz.Code != http.StatusOK {
			t.Fatalf("recovered /healthz = %d, want 200", hz.Code)
		}
	})
}

// TestStreamsLargeRank pins chunked streaming: a rank several times
// serveChunk long arrives byte-identical with an exact Content-Length,
// for the whole stream and for windows that straddle chunk boundaries.
func TestStreamsLargeRank(t *testing.T) {
	full := payload(0, int(bigBytes))
	cases := []struct {
		name string
		url  string
		want []byte
	}{
		{"whole stream", "/rank/0", full},
		{"window across chunk boundary",
			fmt.Sprintf("/rank/0?off=%d&n=%d", serveChunk-100, serveChunk+200),
			full[serveChunk-100 : 2*serveChunk+100]},
		{"tail remainder", fmt.Sprintf("/rank/0?off=%d", 2*serveChunk), full[2*serveChunk:]},
	}
	eachTopology(t, "big", Flags{}, func(t *testing.T, f *fixture) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				wantBody(t, tc.url, f.get(tc.url), tc.want)
			})
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so a handler's
// allocations are its own and not a recorder's growing body.
type discardWriter struct{ hdr http.Header }

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWindowReadAllocatesNoBody pins the pooled body buffer: a warm
// 64 KiB window read allocates request bookkeeping only — well under a
// quarter of the body, and at most 17 allocations — on both topologies.
func TestWindowReadAllocatesNoBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	eachTopology(t, "big", Flags{}, func(t *testing.T, f *fixture) {
		const url = "/rank/0?off=4096&n=65536"
		wantBody(t, url, f.get(url), payload(0, int(bigBytes))[4096:4096+65536]) // and warms the cache
		f.captureLog()
		w := &discardWriter{hdr: make(http.Header)}
		req := httptest.NewRequest("GET", url, nil)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.h.ServeHTTP(w, req)
			}
		})
		t.Logf("%d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
		if got := res.AllocedBytesPerOp(); got >= 16<<10 {
			t.Fatalf("a warm 64 KiB GET allocates %d B/op (%d allocs/op), want < 16 KiB: the body buffer is not pooled",
				got, res.AllocsPerOp())
		}
		if got := res.AllocsPerOp(); got > 17 {
			t.Fatalf("a warm 64 KiB GET makes %d allocs/op, want ≤ 17", got)
		}
	})
}

// failAfterWriter passes through a fixed number of Writes, then fails —
// the shape of a client hanging up mid-download.
type failAfterWriter struct {
	http.ResponseWriter
	remaining int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("client hung up")
	}
	f.remaining--
	return f.ResponseWriter.Write(p)
}

// TestWriteErrorLogged pins the post-header error path: once the status
// line is out, a failed body write must be logged and the stream cut
// short — not silently dropped, and never a second WriteHeader.
func TestWriteErrorLogged(t *testing.T) {
	eachTopology(t, "big", Flags{}, func(t *testing.T, f *fixture) {
		logs := f.captureLog()
		rec := httptest.NewRecorder()
		w := &failAfterWriter{ResponseWriter: rec, remaining: 1}
		f.h.ServeHTTP(w, httptest.NewRequest("GET", "/rank/0", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d, want 200 (headers precede the failure)", rec.Code)
		}
		if got := int64(rec.Body.Len()); got != serveChunk {
			t.Errorf("body stopped at %d bytes, want exactly one chunk (%d)", got, serveChunk)
		}
		if len(logs.recs) != 1 || logs.recs[0].Msg != "writing response" ||
			!logs.recs[0].hasKeys("req", "path", "at", "of", "err") {
			t.Errorf("log records = %+v, want one write-failure entry with req, path, at, of, err", logs.recs)
		}
	})
}

// TestWriteJSONErrorsChecked pins WriteJSON's two failure paths: an
// unencodable value becomes a 500 (nothing was written yet), and a failed
// write of a good payload is logged.
func TestWriteJSONErrorsChecked(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		logs := f.captureLog()
		rec := httptest.NewRecorder()
		f.api.WriteJSON(rec, make(chan int)) // not marshalable
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("unencodable value: status %d, want 500", rec.Code)
		}
		if len(logs.recs) != 1 || logs.recs[0].Msg != "encoding response" || !logs.recs[0].hasKeys("err") {
			t.Fatalf("log records = %+v, want one encoding-failure entry", logs.recs)
		}

		logs.recs = nil
		w := &failAfterWriter{ResponseWriter: httptest.NewRecorder(), remaining: 0}
		f.api.WriteJSON(w, map[string]int{"ok": 1})
		if len(logs.recs) != 1 || logs.recs[0].Msg != "writing response" || !logs.recs[0].hasKeys("err") {
			t.Errorf("log records = %+v, want one write-failure entry", logs.recs)
		}
	})
}

// TestRequestIDEcho pins the middleware header contract: a fresh ID is
// assigned when the client sends none, a client-sent ID is adopted, and
// an oversize ID or one with characters outside [A-Za-z0-9._:-] is
// replaced by a fresh one rather than echoed and logged.
func TestRequestIDEcho(t *testing.T) {
	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		if id := f.get("/rank/0").Header().Get(obs.RequestIDHeader); !fresh.MatchString(id) {
			t.Errorf("generated request ID %q, want 16 hex chars", id)
		}
		for _, tc := range []struct{ sent, want string }{
			{"caller-chosen-id", "caller-chosen-id"},
			{strings.Repeat("a", 65), ""},
			{`id with "quotes"`, ""},
		} {
			req := httptest.NewRequest("GET", "/rank/0", nil)
			req.Header.Set(obs.RequestIDHeader, tc.sent)
			rec := httptest.NewRecorder()
			f.h.ServeHTTP(rec, req)
			id := rec.Header().Get(obs.RequestIDHeader)
			if tc.want != "" && id != tc.want {
				t.Errorf("sent request ID %q, echoed %q, want the caller's", tc.sent, id)
			}
			if tc.want == "" && !fresh.MatchString(id) {
				t.Errorf("sent request ID %q, echoed %q, want a fresh 16-hex ID", tc.sent, id)
			}
		}
	})
}

// TestSlowRequestLogCarriesCrumbs drops the slow threshold to a
// nanosecond so every request logs, and checks the trail: a cold read
// leaves backend_read crumbs, a warm re-read cache_hit crumbs, and a key
// read after the key index is built cache_hit crumbs on its own span.
func TestSlowRequestLogCarriesCrumbs(t *testing.T) {
	eachTopology(t, "data", Flags{SlowMs: 500}, func(t *testing.T, f *fixture) {
		if f.api.Slow != 500*time.Millisecond {
			t.Fatalf("Slow = %v from -slow-ms 500", f.api.Slow)
		}
		f.api.Slow = time.Nanosecond
		logs := f.captureLog()
		for i, url := range []string{"/rank/0", "/rank/0",
			fmt.Sprintf("/rank/%d/keys", keyRankA), fmt.Sprintf("/rank/%d/key/9", keyRankA)} {
			if rec := f.get(url); rec.Code != 200 {
				t.Fatalf("request %d %s: status %d", i, url, rec.Code)
			}
		}
		var crumbs []string
		for _, r := range logs.recs {
			if r.Msg != "slow request" {
				continue
			}
			if !r.hasKeys("req", "path", "ms", "crumbs") {
				t.Errorf("slow-request record %+v, want req, path, ms, crumbs", r)
			}
			crumbs = append(crumbs, r.Attrs["crumbs"].String())
		}
		if len(crumbs) != 4 {
			t.Fatalf("slow-request records = %d, want 4 (crumbs %q)", len(crumbs), crumbs)
		}
		if !strings.Contains(crumbs[0], obs.CrumbBackendRead.String()+"=") {
			t.Errorf("cold read crumbs %q, want a backend_read", crumbs[0])
		}
		if !strings.Contains(crumbs[1], obs.CrumbCacheHit.String()+"=") {
			t.Errorf("warm read crumbs %q, want cache hits", crumbs[1])
		}
		if !strings.Contains(crumbs[3], obs.CrumbCacheHit.String()+"=") {
			t.Errorf("key read crumbs %q, want cache hits", crumbs[3])
		}
	})
}

// familySum sums every sample of a counter/gauge family across its label
// sets (all nodes) in a Prometheus text exposition.
func familySum(t *testing.T, body, family string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer family name sharing this prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing sample %q: %v", line, err)
		}
		sum += int64(v)
	}
	return sum
}

// TestMetricsMatchesStats seeds a workload and pins the acceptance
// contract: /metrics parses cleanly (obs.CheckExposition) and its
// families agree exactly with the cluster's Stats snapshot — they are
// the same instruments. (CI runs this as its exposition smoke test.)
func TestMetricsMatchesStats(t *testing.T) {
	checkMetricsMatchStats(t, "data", Flags{}, rawRanks)
}

// TestMetricsMatchesStatsWhenCachesFill is the same contract with the
// read-around counter moving: the big multifile streams 2.5 MiB twice
// through 1 MiB caches, which read most of it around themselves.
func TestMetricsMatchesStatsWhenCachesFill(t *testing.T) {
	checkMetricsMatchStats(t, "big", Flags{CacheMB: 1}, 1)
}

func checkMetricsMatchStats(t *testing.T, name string, fl Flags, ranks int) {
	eachTopology(t, name, fl, func(t *testing.T, f *fixture) {
		for i := 0; i < 2; i++ { // second pass hits the warmed cache
			for r := 0; r < ranks; r++ {
				if rec := f.get("/rank/" + strconv.Itoa(r)); rec.Code != 200 {
					t.Fatalf("rank %d: status %d", r, rec.Code)
				}
			}
		}
		rec := f.get("/metrics")
		if rec.Code != 200 {
			t.Fatalf("/metrics: status %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("/metrics Content-Type %q", ct)
		}
		if id := rec.Header().Get(obs.RequestIDHeader); len(id) != 16 {
			t.Errorf("request ID %q, want 16 hex chars", id)
		}
		body := rec.Body.String()
		if err := obs.CheckExposition([]byte(body)); err != nil {
			t.Fatalf("exposition: %v", err)
		}
		want := f.families()
		readAround := fl.CacheMB != 0 // only the small caches fill
		if want["serve_cache_hits_total"] == 0 || want["serve_backend_reads_total"] == 0 ||
			(want["serve_cache_read_around_total"] > 0) != readAround {
			t.Fatalf("workload did not seed the counters: %v", want)
		}
		for family, v := range want {
			if got := familySum(t, body, family); got != v {
				t.Errorf("%s = %d, want %d (Stats)", family, got, v)
			}
		}
		// The instrumented backend shares the registry, so one scrape shows
		// cache behavior next to the raw I/O it turns into, labeled.
		if familySum(t, body, "fsio_ops_total") == 0 || !strings.Contains(body, `fsio_ops_total{backend="os"`) {
			t.Error("fsio_ops_total missing or unlabeled in the exposition")
		}
	})
}

// TestRunDrainsAndCloses pins the life cycle: Run serves until its context
// ends, lets the in-flight request finish, then closes the cluster; a
// listen failure is returned (and the cluster closed) instead.
func TestRunDrainsAndCloses(t *testing.T) {
	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ran := make(chan error, 1)
		go func() { ran <- f.api.Run(ctx, "test", addr) }()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never came up: %v", err)
			}
		}

		// Park one request inside a backend read, begin the drain, then
		// let it go: it must still be answered in full.
		f.gate.shut.Store(true)
		type result struct {
			code int
			n    int
			err  error
		}
		got := make(chan result, 1)
		go func() {
			resp, err := http.Get("http://" + addr + "/rank/1")
			if err != nil {
				got <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			got <- result{resp.StatusCode, buf.Len(), err}
		}()
		select {
		case <-f.gate.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("the request never reached the backend")
		}
		cancel()
		select {
		case err := <-ran:
			t.Fatalf("Run returned (%v) with a request still in flight", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(f.gate.open)
		if r := <-got; r.err != nil || r.code != 200 || r.n != perRank {
			t.Errorf("in-flight request across the drain: %+v, want 200 with %d bytes", r, perRank)
		}
		if err := <-ran; err != nil {
			t.Errorf("Run after a clean drain: %v", err)
		}
		if h, err := f.c.Open(0); err == nil {
			if _, err := h.ReadLogicalAt(make([]byte, 8), 0); err == nil {
				t.Error("the cluster still serves reads after Run returned")
			}
		}
	})

	eachTopology(t, "data", Flags{}, func(t *testing.T, f *fixture) {
		if err := f.api.Run(context.Background(), "test", "256.0.0.1:http"); err == nil {
			t.Error("Run on an unusable address returned nil")
		}
	})
}
