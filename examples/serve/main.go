// Serving a multifile to many concurrent clients: a job writes a
// checkpoint with N tasks, then a single serving process fronts it for a
// crowd of reader goroutines through internal/serve — the sharded block
// cache and its span-coalescing miss path turn thousands of logical reads
// into a handful of dense backend span reads, while every client sees exactly
// the bytes its writer rank produced (including per-key record lookups).
// A wrong byte, or as many backend reads as clients, is an error and a
// non-zero exit.
//
// Run with: go run ./examples/serve [dir]
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/serve"
)

const (
	nWriters = 12
	nClients = 200
	perRank  = 32 << 10
)

// state is writer rank g's payload.
func state(g int) []byte {
	out := make([]byte, perRank+g*131)
	x := uint32(g)*2654435761 + 77
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// client reads rank c mod nWriters's record through srv and compares it
// with what the writer wrote.
func client(srv *serve.Server, c int) error {
	rank := c % nWriters
	h, err := srv.Open(rank)
	if err != nil {
		return fmt.Errorf("client %d: %w", c, err)
	}
	kr, err := h.KeyReader()
	if err != nil {
		return fmt.Errorf("client %d: %w", c, err)
	}
	got, err := kr.ReadKey(7)
	if err != nil {
		return fmt.Errorf("client %d: %w", c, err)
	}
	if !bytes.Equal(got, state(rank)) {
		return fmt.Errorf("client %d: rank %d bytes differ", c, rank)
	}
	return nil
}

func run(dir string) error {
	fsys := fsio.NewOS(dir)

	// Phase 1: write the multifile — plain payload plus one tagged record
	// per rank (key 7) so clients can demonstrate key lookups.
	errs := make([]error, nWriters)
	mpi.Run(nWriters, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "serve.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 16 << 10,
		})
		if err != nil {
			errs[c.Rank()] = fmt.Errorf("writer %d: %w", c.Rank(), err)
			return
		}
		w, err := sion.NewKeyWriter(f)
		if err == nil {
			err = w.WriteKey(7, state(c.Rank()))
		}
		if cerr := f.Close(); err == nil { // Close is collective: reach it on every path
			err = cerr
		}
		if err != nil {
			errs[c.Rank()] = fmt.Errorf("writer %d: %w", c.Rank(), err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Phase 2: one server, many concurrent clients.
	srv, err := serve.New(fsys, "serve.sion", &serve.Config{CacheBytes: 8 << 20})
	if err != nil {
		return err
	}
	defer srv.Close()

	errs = make([]error, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = client(srv, c)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	st := srv.Stats()
	fmt.Printf("served %d clients over %d ranks\n", nClients, nWriters)
	fmt.Printf("logical bytes served: %d\n", st.ServedBytes)
	fmt.Printf("backend span reads:   %d (%d bytes)\n", st.BackendReads, st.BackendBytes)
	fmt.Printf("cache hits/misses:    %d/%d (%.1f%% hit rate), %d resolved in flight\n",
		st.Hits, st.Misses, 100*float64(st.Hits)/float64(st.Hits+st.Misses), st.FlightHits)
	// Every client reads at least once, so the cache must have turned the
	// clients' reads into fewer backend reads than there are clients.
	if st.BackendReads >= nClients {
		return fmt.Errorf("%d backend span reads for %d clients: the cache saved nothing", st.BackendReads, nClients)
	}
	fmt.Println("all client reads verified bit-exactly against the written state")
	return nil
}

func main() {
	dir := os.TempDir()
	if len(os.Args) > 1 {
		dir = os.Args[1]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	if err := run(dir); err != nil {
		log.Fatal(err)
	}
}
