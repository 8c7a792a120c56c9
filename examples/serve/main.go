// Serving a multifile to many concurrent clients: a job writes a
// checkpoint with N tasks, then a single serving process fronts it for a
// crowd of reader goroutines through internal/serve — the sharded block
// cache and its span-coalescing miss path turn thousands of logical reads
// into a handful of dense backend span reads, while every client sees exactly
// the bytes its writer rank produced (including per-key record lookups).
//
// Run with: go run ./examples/serve [dir]
package main

import (
	"bytes"
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
	x := uint32(g*2654435761 + 77)
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

func main() {
	dir := os.TempDir()
	if len(os.Args) > 1 {
		dir = os.Args[1]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	fsys := fsio.NewOS(dir)

	// Phase 1: write the multifile — plain payload plus one tagged record
	// per rank (key 7) so clients can demonstrate key lookups.
	mpi.Run(nWriters, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "serve.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 16 << 10,
		})
		if err != nil {
			log.Fatalf("writer %d: %v", c.Rank(), err)
		}
		w, err := sion.NewKeyWriter(f)
		if err != nil {
			log.Fatalf("writer %d: %v", c.Rank(), err)
		}
		if err := w.WriteKey(7, state(c.Rank())); err != nil {
			log.Fatalf("writer %d: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("writer %d: %v", c.Rank(), err)
		}
	})

	// Phase 2: one server, many concurrent clients.
	srv, err := serve.New(fsys, "serve.sion", &serve.Config{CacheBytes: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rank := c % nWriters
			h, err := srv.Open(rank)
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			kr, err := h.KeyReader()
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			got, err := kr.ReadKey(7)
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			if !bytes.Equal(got, state(rank)) {
				log.Fatalf("client %d: rank %d bytes differ", c, rank)
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("served %d clients over %d ranks\n", nClients, nWriters)
	fmt.Printf("logical bytes served: %d\n", st.ServedBytes)
	fmt.Printf("backend span reads:   %d (%d bytes)\n", st.BackendReads, st.BackendBytes)
	fmt.Printf("cache hits/misses:    %d/%d (%.1f%% hit rate), %d resolved in flight\n",
		st.Hits, st.Misses, 100*float64(st.Hits)/float64(st.Hits+st.Misses), st.FlightHits)
	fmt.Println("all client reads verified bit-exactly against the written state")
}
