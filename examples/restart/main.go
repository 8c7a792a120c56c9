// Restart with a different task count: a job checkpoints its state with N
// tasks through SIONlib, then restarts with M tasks (M ≠ N) using mapped
// open — the sion_paropen_mapped scenario. Each of the M restart tasks
// takes over a balanced contiguous span of the original N writer ranks,
// reads every owned rank's logical file back, and verifies it bit-exactly;
// a second restart demonstrates the collective mapped read, where only
// ⌈M/group⌉ collector tasks touch the physical file. A byte that differs
// is an error and a non-zero exit.
//
// Run with: go run ./examples/restart [dir]
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

const (
	nWriters = 16 // checkpointing job size
	nReaders = 6  // restart job size (rescaled down, and not a divisor)
	perRank  = 48 << 10
)

// state is writer rank g's in-memory domain: a deterministic byte pattern
// standing in for particles or grid cells.
func state(g int) []byte {
	out := make([]byte, perRank+g*97)
	x := uint32(g)*2654435761 + 7
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// restart reads the checkpoint back with nReaders tasks and checks every
// writer rank's state bit-exactly.
func restart(fsys *fsio.OS, opts *sion.Options, label string) error {
	errs := make([]error, nReaders)
	mpi.Run(nReaders, func(c *mpi.Comm) {
		// owned == nil picks the balanced contiguous partition; pass
		// explicit rank lists for custom layouts.
		mf, err := sion.ParOpenMapped(c, fsys, "restart.sion", sion.ReadMode, nil, opts)
		if err != nil {
			errs[c.Rank()] = fmt.Errorf("reader %d: %w", c.Rank(), err)
			return
		}
		defer mf.Close()
		var total int
		for _, g := range mf.OwnedRanks() {
			h, err := mf.Rank(g)
			if err != nil {
				errs[c.Rank()] = fmt.Errorf("reader %d: %w", c.Rank(), err)
				return
			}
			got := make([]byte, h.LogicalSize())
			if _, err := h.Read(got); err != nil {
				errs[c.Rank()] = fmt.Errorf("reader %d rank %d: %w", c.Rank(), g, err)
				return
			}
			if !bytes.Equal(got, state(g)) {
				errs[c.Rank()] = fmt.Errorf("reader %d: rank %d state differs after restart", c.Rank(), g)
				return
			}
			total += len(got)
		}
		group, collector := mf.Collective()
		role := ""
		if group > 1 {
			role = " [member]"
			if collector {
				role = " [collector]"
			}
		}
		fmt.Printf("  %s: reader %d restored writer ranks %v (%d bytes)%s\n",
			label, c.Rank(), mf.OwnedRanks(), total, role)
	})
	return errors.Join(errs...)
}

func run(dir string) error {
	fsys := fsio.NewOS(dir)

	// Phase 1: checkpoint with N tasks (ordinary ParOpen write).
	errs := make([]error, nWriters)
	mpi.Run(nWriters, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "restart.sion", sion.WriteMode, &sion.Options{
			ChunkSize: 16 << 10,
		})
		if err != nil {
			errs[c.Rank()] = fmt.Errorf("writer %d: %w", c.Rank(), err)
			return
		}
		_, err = f.Write(state(c.Rank()))
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
	fmt.Printf("checkpointed %d tasks into restart.sion\n", nWriters)

	// Phase 2: restart with M tasks, direct and collective.
	fmt.Printf("restarting with %d tasks, direct mapped read:\n", nReaders)
	if err := restart(fsys, nil, "direct"); err != nil {
		return err
	}
	fmt.Printf("restarting with %d tasks, collective mapped read (group 3):\n", nReaders)
	if err := restart(fsys, &sion.Options{CollectorGroup: 3}, "collective"); err != nil {
		return err
	}
	fmt.Println("restart verified bit-exact with a different task count")
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
