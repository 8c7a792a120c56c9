package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/httpapi"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The read-side HTTP contract is pinned once, for both front ends, by
// internal/httpapi's suite. What is sionrouter's own: the wiring in
// main() (flags → backend stack, per-node serve.Config, one registry for
// the whole topology), the /cluster routes, and what /healthz and /stats
// mean for a cluster.

const (
	rtRanks   = 3
	rtPerRank = 5000
)

// rtPayload is the deterministic per-rank content of the test multifile.
func rtPayload(rank, size int) []byte {
	p := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// newTestRouter writes a small multifile and stands up a 3-node router
// over it the way main() does, from parsed flags.
func newTestRouter(t *testing.T, args ...string) (*router, http.Handler) {
	t.Helper()
	dir := t.TempDir()
	mpi.Run(rtRanks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsio.NewOS(dir), "data", sion.WriteMode, &sion.Options{ChunkSize: 2048})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		if _, err := f.Write(rtPayload(c.Rank(), rtPerRank)); err != nil {
			t.Errorf("rank %d: Write: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})
	fs := flag.NewFlagSet("sionrouter", flag.ContinueOnError)
	fl := httpapi.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		t.Fatal(err)
	}
	rt := &router{
		c:    cluster.New(&cluster.Config{Metrics: reg}),
		fsys: stack.FS,
		name: filepath.Join(dir, "data"),
		scfg: fl.ServeConfig(),
	}
	t.Cleanup(func() { rt.c.Close() })
	for i := 1; i <= 3; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), rt.fsys, rt.name, rt.scfg); err != nil {
			t.Fatalf("Join n%d: %v", i, err)
		}
	}
	rt.mount(fl)
	return rt, rt.api.Handler()
}

func do(h http.Handler, method, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec
}

// TestRouterClusterOps drives the membership endpoints: join grows the
// ring, duplicate joins conflict, leave shrinks it, unknown leaves 404,
// non-POSTs 405, and reads stay byte-identical across the churn.
func TestRouterClusterOps(t *testing.T) {
	_, h := newTestRouter(t)
	full := rtPayload(2, rtPerRank)

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

	if rec := do(h, "POST", "/cluster/join?id=n4"); rec.Code != 200 {
		t.Fatalf("join: status %d (%s)", rec.Code, rec.Body.String())
	} else if got := members(rec); len(got) != 4 {
		t.Fatalf("post-join membership %v, want 4 nodes", got)
	}
	if rec := do(h, "POST", "/cluster/join?id=n4"); rec.Code != http.StatusConflict {
		t.Errorf("duplicate join: status %d, want 409", rec.Code)
	}
	if rec := do(h, "GET", "/rank/2"); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
		t.Errorf("read after join: status %d, %d bytes", rec.Code, rec.Body.Len())
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
	if rec := do(h, "POST", "/cluster/frobnicate"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown op: status %d, want 404", rec.Code)
	}
	var reb struct {
		Replicated int `json:"replicated"`
	}
	if rec := do(h, "POST", "/cluster/rebalance"); rec.Code != 200 {
		t.Errorf("rebalance: status %d", rec.Code)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &reb); err != nil {
		t.Errorf("rebalance body %q: %v", rec.Body.String(), err)
	}
}

// TestRouterHealthzAndStats pins what the shared JSON surfaces mean for a
// cluster: /healthz is 200/"ok" with one entry per node, and /stats
// carries the routing counters (every rank read once → requests counted,
// no failovers, no replica exhaustion).
func TestRouterHealthzAndStats(t *testing.T) {
	_, h := newTestRouter(t)
	for r := 0; r < rtRanks; r++ {
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
	var st cluster.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	if st.Nodes != 3 || st.Requests == 0 {
		t.Errorf("stats nodes=%d requests=%d, want 3 nodes and nonzero requests", st.Nodes, st.Requests)
	}
	if st.Failovers != 0 || st.AllReplicasDown != 0 {
		t.Errorf("healthy cluster shows failovers=%d allDown=%d", st.Failovers, st.AllReplicasDown)
	}
}

// TestFlagsWireTheTopology checks main()'s wiring under non-default
// flags: -block reaches every node's cache geometry, and one registry
// carries the router's cluster_* families, every node's serve_* families
// under its node label, and the shared backend's fsio_* families under
// the -backend stack's label.
func TestFlagsWireTheTopology(t *testing.T) {
	rt, h := newTestRouter(t, "-block", "8192", "-cache-mb", "1", "-slow-ms", "0")
	if got := rt.c.BlockBytes(); got != 8192 {
		t.Errorf("-block 8192: the cluster routes %d-byte blocks", got)
	}
	for r := 0; r < rtRanks; r++ {
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
