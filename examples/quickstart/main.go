// Quickstart: write task-local data from 8 parallel tasks into one SION
// multifile on the local file system, read it back in parallel, and
// inspect it with the serial global view — the minimal end-to-end use of
// the library (paper Listings 1, 2, and 5). Every read-back is compared
// with what its task wrote; a difference is an error and a non-zero exit.
//
// Run with: go run ./examples/quickstart [dir]
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

const (
	ntasks = 8
	name   = "quickstart.sion"
)

// payload is what task rank writes.
func payload(rank int) []byte { return []byte(fmt.Sprintf("hello from task %d\n", rank)) }

// write is task c's parallel write (paper Listing 1): collective open,
// independent writes, collective close.
func write(c *mpi.Comm, fsys fsio.FileSystem) error {
	f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{ChunkSize: 1 << 16, NFiles: 2})
	if err != nil {
		return err
	}
	p := payload(c.Rank())
	// ANSI-C style: make sure the chunk has room, then write.
	err = f.EnsureFreeSpace(int64(len(p)))
	if err == nil {
		_, err = f.Write(p)
	}
	if cerr := f.Close(); err == nil { // Close is collective: reach it on every path
		err = cerr
	}
	return err
}

// read is task c's parallel read (paper Listing 2), chunk by chunk.
func read(c *mpi.Comm, fsys fsio.FileSystem) ([]byte, error) {
	f, err := sion.ParOpen(c, fsys, name, sion.ReadMode, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close() // collective too
	var buf bytes.Buffer
	for !f.EOF() {
		chunk := make([]byte, f.BytesAvailInChunk())
		if _, err := io.ReadFull(f, chunk); err != nil {
			return nil, err
		}
		buf.Write(chunk)
	}
	return buf.Bytes(), nil
}

// task is one rank's run: write, read back, compare.
func task(c *mpi.Comm, fsys fsio.FileSystem) error {
	if err := write(c, fsys); err != nil {
		return fmt.Errorf("rank %d: write: %w", c.Rank(), err)
	}
	got, err := read(c, fsys)
	if err != nil {
		return fmt.Errorf("rank %d: read: %w", c.Rank(), err)
	}
	if !bytes.Equal(got, payload(c.Rank())) {
		return fmt.Errorf("rank %d: read back %q, wrote %q", c.Rank(), got, payload(c.Rank()))
	}
	if c.Rank() == 0 {
		fmt.Printf("rank 0 read back: %q\n", got)
	}
	return nil
}

func run(dir string) error {
	fsys := fsio.NewOS(dir)
	errs := make([]error, ntasks)
	mpi.Run(ntasks, func(c *mpi.Comm) { errs[c.Rank()] = task(c, fsys) })
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Serial global view (paper Listing 5): one process sees all tasks.
	sf, err := sion.Open(fsys, name)
	if err != nil {
		return err
	}
	defer sf.Close()
	loc := sf.Locations()
	if loc.NTasks != ntasks || loc.NFiles != 2 {
		return fmt.Errorf("multifile holds %d logical files in %d physical segments, want %d in 2", loc.NTasks, loc.NFiles, ntasks)
	}
	fmt.Printf("multifile holds %d logical files in %d physical segments\n", loc.NTasks, loc.NFiles)
	for r := 0; r < loc.NTasks; r++ {
		data, err := sf.ReadRank(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, payload(r)) {
			return fmt.Errorf("serial view of task %d: %q, wrote %q", r, data, payload(r))
		}
		fmt.Printf("  task %d (%d bytes): %s", r, len(data), data)
	}
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
