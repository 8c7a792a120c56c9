// Simulation: drive the simulated Jugene machine (Blue Gene/P + GPFS
// model) directly from the public API — a miniature version of the
// paper's Fig. 3 and Fig. 5 experiments that completes in seconds. It
// shows how the discrete-event machinery behind cmd/sionbench composes:
// a vtime engine, the message-passing runtime in simulated mode, and
// per-task file-system views. Every rank finally writes a record of real
// bytes through a multifile and reads it back; a difference is an error
// and a non-zero exit.
//
// Run with: go run ./examples/simulation
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

const ntasks = 2048

func run() error {
	// 1. Creating one file per task vs one SION multifile (Fig. 3 at
	// reduced scale).
	tCreate, err1 := simulate(func(c *mpi.Comm, v fsio.FileSystem) error {
		fh, err := v.Create(fmt.Sprintf("d/task-%05d", c.Rank()))
		if err != nil {
			return err
		}
		return fh.Close()
	})
	tSion, err2 := simulate(func(c *mpi.Comm, v fsio.FileSystem) error {
		f, err := sion.ParOpen(c, v, "d/all.sion", sion.WriteMode,
			&sion.Options{ChunkSize: 2 << 20})
		if err != nil {
			return err
		}
		return f.Close()
	})

	// 2. Writing 32 GB through the multifile (Fig. 5 flavour). The bytes
	// are synthetic: metered through the cost model, never materialized.
	const total = 32 << 30
	tWrite, err3 := simulate(func(c *mpi.Comm, v fsio.FileSystem) error {
		per := int64(total / ntasks)
		f, err := sion.ParOpen(c, v, "d/data.sion", sion.WriteMode,
			&sion.Options{ChunkSize: per, NFiles: 32})
		if err != nil {
			return err
		}
		return errors.Join(f.WriteSynthetic(per), f.Close())
	})

	// 3. Real bytes: every rank writes its own record through a
	// multifile, and a second parallel open reads every record back.
	tRW, err4 := simulate(roundTrip)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}

	fmt.Printf("simulated Jugene, %d tasks\n\n", ntasks)
	fmt.Printf("parallel creation of %d task-local files: %6.1f s (simulated)\n", ntasks, tCreate)
	fmt.Printf("creation of one SION multifile:            %6.1f s (simulated)\n", tSion)
	fmt.Printf("-> %.0fx faster\n\n", tCreate/tSion)
	fmt.Printf("32 GB through a 32-segment multifile: %.1f s -> %.0f MB/s aggregate\n\n",
		tWrite, total/tWrite/1e6)
	fmt.Printf("write + read-back of %d records: %.2f s (simulated); every rank read back what it wrote\n",
		ntasks, tRW)
	return nil
}

// roundTrip writes a record of about 1 KiB, different per rank, through
// a multifile of 8 physical files, reopens it for reading and compares.
func roundTrip(c *mpi.Comm, v fsio.FileSystem) error {
	want := bytes.Repeat([]byte(fmt.Sprintf("rank %05d;", c.Rank())), 100)
	f, err := sion.ParOpen(c, v, "d/rw.sion", sion.WriteMode,
		&sion.Options{ChunkSize: int64(len(want)), NFiles: 8})
	if err != nil {
		return err
	}
	_, werr := f.Write(want)
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}
	r, err := sion.ParOpen(c, v, "d/rw.sion", sion.ReadMode, nil)
	if err != nil {
		return err
	}
	got, rerr := io.ReadAll(r)
	if err := errors.Join(rerr, r.Close()); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("rank %d: read back %d bytes, not the %d it wrote", c.Rank(), len(got), len(want))
	}
	return nil
}

// simulate runs body on ntasks simulated ranks over a fresh simulated
// Jugene file system and returns the simulated time the last rank
// finished at, with every rank's error.
func simulate(body func(c *mpi.Comm, v fsio.FileSystem) error) (float64, error) {
	fs := simfs.New(simfs.Jugene())
	errs := make([]error, ntasks)
	var end float64
	mpi.RunSim(vtime.NewEngine(), ntasks, mpi.DefaultCost, func(c *mpi.Comm) {
		errs[c.Rank()] = body(c, fs.View(c.Rank(), c.Proc()))
		if t := c.Now(); t > end {
			end = t
		}
	})
	return end, errors.Join(errs...)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
