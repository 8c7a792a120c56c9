package main

import (
	"flag"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/backendflag"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/httpapi"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The HTTP contract is pinned once, for both front ends, by
// internal/httpapi's suite. What is sionserve's own is the wiring in
// main(): flags → backend stack, serve.Config and one shared registry.

// TestFlagsWireTheProcess mirrors main()'s construction under non-default
// flags and checks each flag landed: -block in the cache geometry,
// -backend and the shared registry in one /metrics exposition that
// carries the serve_* families next to backend-labeled fsio_* families,
// -cache-mb in what the cache may hold.
func TestFlagsWireTheProcess(t *testing.T) {
	dir := t.TempDir()
	const ranks, perRank = 3, 3 << 20
	mpi.Run(ranks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsio.NewOS(dir), "data", sion.WriteMode, &sion.Options{ChunkSize: 1 << 20})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		if _, err := f.Write(make([]byte, perRank)); err != nil {
			t.Errorf("rank %d: Write: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})

	fs := flag.NewFlagSet("sionserve", flag.ContinueOnError)
	fl := httpapi.RegisterFlags(fs)
	if err := fs.Parse([]string{"-cache-mb", "2", "-block", "65536", "-slow-ms", "0", "-backend", "posix"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.ServeConfig()
	cfg.Metrics = reg
	srv, err := serve.New(stack.FS, filepath.Join(dir, "data"), cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	h := httpapi.ForServer(srv, fl).Handler()

	if got := srv.BlockBytes(); got != 65536 {
		t.Errorf("-block 65536: cache blocks are %d bytes", got)
	}
	for r := 0; r < ranks; r++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/rank/"+strconv.Itoa(r), nil))
		if rec.Code != 200 || rec.Body.Len() != perRank {
			t.Fatalf("rank %d: status %d, %d bytes", r, rec.Code, rec.Body.Len())
		}
	}
	// One streaming scan fills the cache and reads the rest around it: a
	// full cache admits a block only on its second miss. Reading the last
	// rank again admits the blocks it declined last, evicting for them.
	scan := srv.Stats()
	if scan.CachedBytes > 2<<20 || scan.ReadAround == 0 {
		t.Errorf("-cache-mb 2 after streaming %d MiB: %d bytes resident, %d blocks read around", ranks*perRank>>20, scan.CachedBytes, scan.ReadAround)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/rank/"+strconv.Itoa(ranks-1), nil))
	if st := srv.Stats(); rec.Code != 200 || st.CachedBytes > 2<<20 || st.Evictions == scan.Evictions {
		t.Errorf("-cache-mb 2 after reading rank %d again: status %d, %d bytes resident, evictions %d -> %d",
			ranks-1, rec.Code, st.CachedBytes, scan.Evictions, st.Evictions)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if err := obs.CheckExposition([]byte(body)); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	// Every fsio_* family carries the backend label (the -backend flag's
	// stack label, "os" here), so multi-backend deployments stay tellable
	// apart in one exposition.
	for _, want := range []string{"serve_backend_reads_total ", `fsio_ops_total{backend="os"`, `fsio_bytes_total{backend="os"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q: the serve layer and the instrumented backend must share main()'s registry", want)
		}
	}
}
