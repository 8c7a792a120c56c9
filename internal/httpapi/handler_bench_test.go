package httpapi

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/resil"
)

// BenchmarkHandler serves one resident 4 KiB window into an httptest
// recorder, in process, with no connection: …/api through the full
// middleware and handler over a one-node cluster with sionserve's default
// flags, and …/bare through a handler that writes the same bytes and
// headers and nothing else. Their allocs/op and ns/op differ by what the
// front end costs a request beyond net/http's own.
func BenchmarkHandler(b *testing.B) {
	fsys := fsio.NewOS(b.TempDir())
	const size, off, n = 64 << 10, 4096, 4096
	mpi.Run(1, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "h.sion", sion.WriteMode, &sion.Options{ChunkSize: size})
		if err == nil {
			_, err = f.Write(payload(0, size))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			b.Error(err)
		}
	})
	if b.Failed() {
		b.FailNow()
	}
	fl := Flags{CacheMB: 64, Retries: resil.DefaultMaxAttempts, SlowMs: 500}
	c := cluster.New(obs.NewRegistry())
	defer c.Close()
	if _, err := c.Join("n1", fsys, "h.sion", fl.ServeConfig()); err != nil {
		b.Fatal(err)
	}
	api := New(c, &fl)
	api.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	want := payload(0, size)[off : off+n]
	bare := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(want)
	})
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"api", api.Handler()}, {"bare", bare}} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", "/rank/0?off="+strconv.Itoa(off)+"&n="+strconv.Itoa(n), nil)
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req) // and makes the window resident
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				b.Fatalf("GET %s: %d, %d bytes, want 200 and the rank's bytes", req.URL, rec.Code, rec.Body.Len())
			}
			reads := c.Stats().Serve.BackendReads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				tc.h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s: %d", req.URL, rec.Code)
				}
			}
			b.StopTimer()
			if c.Stats().Serve.BackendReads != reads {
				b.Fatal("the window was not resident: the timed requests read the backend")
			}
		})
	}
}
