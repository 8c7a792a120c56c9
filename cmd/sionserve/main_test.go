package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/httpapi"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The read-side HTTP contract is pinned once, on one node and on three, by
// internal/httpapi's suite. What is sionserve's own: the wiring in main()
// (flags → backend stack, per-node serve.Config, one registry for the
// whole topology) and the /cluster routes.

// testPayload is the deterministic per-rank content of the test multifile.
func testPayload(rank, size int) []byte {
	p := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// newTestRouter writes a `ranks`-rank multifile of perRank bytes per rank
// and stands up `nodes` serve nodes over it the way main() does, from
// parsed flags.
func newTestRouter(t *testing.T, ranks, perRank, nodes int, args ...string) (*router, http.Handler) {
	t.Helper()
	dir := t.TempDir()
	mpi.Run(ranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsio.NewOS(dir), "data", sion.WriteMode, &sion.Options{ChunkSize: 1 << 20})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		if _, err := f.Write(testPayload(c.Rank(), perRank)); err != nil {
			t.Errorf("rank %d: Write: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})
	fs := flag.NewFlagSet("sionserve", flag.ContinueOnError)
	fl := httpapi.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fsys, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRouter(fl, fsys, reg, filepath.Join(dir, "data"), nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.c.Close() })
	return rt, rt.api.Handler()
}

func do(h http.Handler, method, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec
}

// TestFlagsWireTheProcess mirrors main()'s construction under non-default
// flags on the default single node and checks each flag landed: -block in
// the cache geometry, -backend and the shared registry in one /metrics
// exposition that carries the serve_* families next to backend-labeled
// fsio_* families, -cache-mb in what the cache may hold.
func TestFlagsWireTheProcess(t *testing.T) {
	const ranks, perRank = 3, 3 << 20
	rt, h := newTestRouter(t, ranks, perRank, 1, "-cache-mb", "2", "-block", "65536", "-slow-ms", "0", "-backend", "posix")
	if got := rt.c.BlockBytes(); got != 65536 {
		t.Errorf("-block 65536: cache blocks are %d bytes", got)
	}
	for r := 0; r < ranks; r++ {
		if rec := do(h, "GET", "/rank/"+strconv.Itoa(r)); rec.Code != 200 || rec.Body.Len() != perRank {
			t.Fatalf("rank %d: status %d, %d bytes", r, rec.Code, rec.Body.Len())
		}
	}
	// One streaming scan fills the cache and reads the rest around it: a
	// full cache admits a block of a large window only if it was asked for
	// more often than the LRU tail. Reading the last rank again counts its
	// blocks twice, and they are admitted, evicting for them.
	scan := rt.c.Stats().Serve
	if scan.CachedBytes > 2<<20 || scan.ReadAround == 0 {
		t.Errorf("-cache-mb 2 after streaming %d MiB: %d bytes resident, %d blocks read around", ranks*perRank>>20, scan.CachedBytes, scan.ReadAround)
	}
	rec := do(h, "GET", "/rank/"+strconv.Itoa(ranks-1))
	if st := rt.c.Stats().Serve; rec.Code != 200 || st.CachedBytes > 2<<20 || st.Evictions == scan.Evictions {
		t.Errorf("-cache-mb 2 after reading rank %d again: status %d, %d bytes resident, evictions %d -> %d",
			ranks-1, rec.Code, st.CachedBytes, scan.Evictions, st.Evictions)
	}

	body := do(h, "GET", "/metrics").Body.String()
	if err := obs.CheckExposition([]byte(body)); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	// Every fsio_* family carries the backend label (the -backend flag's
	// stack label, "os" here), so multi-backend deployments stay tellable
	// apart in one exposition.
	for _, want := range []string{`serve_backend_reads_total{node="n1"}`, `fsio_ops_total{backend="os"`, `fsio_bytes_total{backend="os"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q: the serve layer and the instrumented backend must share main()'s registry", want)
		}
	}
}

// TestFlagsWireTheTopology checks the same wiring on three nodes: -block
// reaches every node's cache geometry, and one registry carries the
// router's cluster_* families, every node's serve_* families under its
// node label, and the shared backend's fsio_* families under the -backend
// stack's label.
func TestFlagsWireTheTopology(t *testing.T) {
	const ranks = 3
	rt, h := newTestRouter(t, ranks, 5000, 3, "-block", "8192", "-cache-mb", "1", "-slow-ms", "0")
	if got := rt.c.BlockBytes(); got != 8192 {
		t.Errorf("-block 8192: the cluster routes %d-byte blocks", got)
	}
	for r := 0; r < ranks; r++ {
		if rec := do(h, "GET", fmt.Sprintf("/rank/%d", r)); rec.Code != 200 {
			t.Fatalf("rank %d: status %d", r, rec.Code)
		}
	}
	body := do(h, "GET", "/metrics").Body.String()
	if err := obs.CheckExposition([]byte(body)); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	want := []string{"cluster_requests_total ", `fsio_ops_total{backend="os"`}
	for _, id := range rt.c.NodeIDs() {
		want = append(want, `serve_served_bytes_total{node="`+id+`"`)
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics lacks %q", w)
		}
	}
}

// TestRouterClusterOps drives the membership endpoints: join grows the
// ring, duplicate joins conflict and leave /metrics agreeing with /stats,
// leave shrinks the ring, unknown leaves and ops 404, non-POSTs 405, GET
// /cluster is read-only, and reads stay byte-identical across the churn.
func TestRouterClusterOps(t *testing.T) {
	const perRank = 5000
	_, h := newTestRouter(t, 3, perRank, 3)
	full := testPayload(2, perRank)

	members := func(rec *httptest.ResponseRecorder) []string {
		t.Helper()
		var out struct {
			Nodes []string `json:"nodes"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("membership body %q: %v", rec.Body.String(), err)
		}
		return out.Nodes
	}
	if got := members(do(h, "GET", "/cluster")); len(got) != 3 {
		t.Fatalf("initial membership %v, want 3 nodes", got)
	}
	for _, method := range []string{"POST", "PUT", "DELETE"} {
		if rec := do(h, method, "/cluster"); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
			t.Errorf("%s /cluster: status %d (Allow %q), want 405 allowing GET, HEAD", method, rec.Code, rec.Header().Get("Allow"))
		}
	}

	if rec := do(h, "POST", "/cluster/join?id=n4"); rec.Code != 200 {
		t.Fatalf("join: status %d (%s)", rec.Code, rec.Body.String())
	} else if got := members(rec); len(got) != 4 {
		t.Fatalf("post-join membership %v, want 4 nodes", got)
	}
	if rec := do(h, "GET", "/rank/2"); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
		t.Errorf("read after join: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	// A refused join leaves the live node's instruments alone: /metrics
	// still says what /stats says.
	for _, id := range members(do(h, "GET", "/cluster")) {
		if rec := do(h, "POST", "/cluster/join?id="+id); rec.Code != http.StatusConflict {
			t.Errorf("duplicate join of %s: status %d, want 409", id, rec.Code)
		}
	}
	var st serve.Stats
	if err := json.Unmarshal(do(h, "GET", "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	metrics := do(h, "GET", "/metrics").Body.String()
	for family, want := range map[string]int64{
		"serve_served_bytes_total":   st.ServedBytes,
		"serve_cache_resident_bytes": st.CachedBytes,
	} {
		if got := familySum(t, metrics, family); got != want || want == 0 {
			t.Errorf("after refused joins %s sums to %d in /metrics, /stats says %d", family, got, want)
		}
	}

	if rec := do(h, "POST", "/cluster/leave?id=n4"); rec.Code != 200 {
		t.Fatalf("leave: status %d (%s)", rec.Code, rec.Body.String())
	} else if got := members(rec); len(got) != 3 {
		t.Fatalf("post-leave membership %v, want 3 nodes", got)
	}
	if rec := do(h, "POST", "/cluster/leave?id=ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown leave: status %d, want 404", rec.Code)
	}
	if rec := do(h, "GET", "/rank/2"); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
		t.Errorf("read after leave: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	if rec := do(h, "POST", "/cluster/join"); rec.Code != http.StatusBadRequest {
		t.Errorf("join without id: status %d, want 400", rec.Code)
	}
	if rec := do(h, "GET", "/cluster/join?id=n5"); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET join: status %d (Allow %q), want 405 allowing POST", rec.Code, rec.Header().Get("Allow"))
	}
	for _, op := range []string{"frobnicate", "rebalance"} {
		if rec := do(h, "POST", "/cluster/"+op); rec.Code != http.StatusNotFound {
			t.Errorf("unknown op %s: status %d, want 404", op, rec.Code)
		}
	}
}

// familySum totals every sample of one family in a /metrics body.
func familySum(t *testing.T, body, family string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // another family, or a longer name sharing this prefix
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += int64(v)
	}
	return sum
}

// TestRouterHealthzAndStats pins what the JSON surfaces and the routing
// counters say about a healthy 3-node ring: /healthz is 200/"ok" with one
// entry per node, /stats is the nodes' flat serve.Stats sum (every byte
// served counted once), and /metrics counts routed runs, with no failovers
// and no replica exhaustion.
func TestRouterHealthzAndStats(t *testing.T) {
	const ranks, perRank = 3, 5000
	_, h := newTestRouter(t, ranks, perRank, 3)
	for r := 0; r < ranks; r++ {
		if rec := do(h, "GET", fmt.Sprintf("/rank/%d", r)); rec.Code != 200 {
			t.Fatalf("rank %d: status %d", r, rec.Code)
		}
	}

	rec := do(h, "GET", "/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz: status %d", rec.Code)
	}
	var hz struct {
		Status string               `json:"status"`
		Nodes  []cluster.NodeHealth `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if hz.Status != "ok" || len(hz.Nodes) != 3 {
		t.Errorf("/healthz = %q with %d nodes, want ok/3", hz.Status, len(hz.Nodes))
	}

	rec = do(h, "GET", "/stats")
	if rec.Code != 200 {
		t.Fatalf("/stats: status %d", rec.Code)
	}
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	if st.ServedBytes != ranks*perRank || st.HandlesOpened != ranks {
		t.Errorf("stats served %d bytes over %d handles, want %d over %d", st.ServedBytes, st.HandlesOpened, ranks*perRank, ranks)
	}

	metrics := do(h, "GET", "/metrics").Body.String()
	for sample, nonzero := range map[string]bool{
		"cluster_requests_total ":          true,
		"cluster_failovers_total ":         false,
		"cluster_all_replicas_down_total ": false,
	} {
		i := strings.Index(metrics, "\n"+sample)
		if i < 0 {
			t.Fatalf("/metrics lacks %q", sample)
		}
		line := metrics[i+1:]
		line = line[:strings.IndexByte(line, '\n')]
		if (line != sample+"0") != nonzero {
			t.Errorf("/metrics sample %q on a healthy ring, want it nonzero: %v", line, nonzero)
		}
	}
}
