// Hybrid: thread-local streams inside task-local files via the key-value
// mode. The paper's §6 roadmap discusses support for hybrid MPI/OpenMP
// codes, where thread-local data must currently be managed at the
// application level; the key-value records (mirroring SIONlib's
// sion_fwrite_key) let every "thread" of a task write under its own key
// into the task's chunks, and readers retrieve each per-thread stream.
// Every thread stream of every task is read back and compared; a
// difference is an error and a non-zero exit.
//
// Run with: go run ./examples/hybrid [dir]
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
)

const (
	ntasks   = 4
	nthreads = 3
	nrecords = 5
)

func record(task, tid, i int) []byte {
	return []byte(fmt.Sprintf("task%d/thread%d/rec%d;", task, tid, i))
}

// task writes the records of its nthreads threads, each under its own
// key.
func task(c *mpi.Comm, fsys fsio.FileSystem) error {
	f, err := sion.ParOpen(c, fsys, "hybrid.sion", sion.WriteMode,
		&sion.Options{ChunkSize: 4096})
	if err != nil {
		return err
	}
	kw, err := sion.NewKeyWriter(f)
	if err != nil {
		return errors.Join(err, f.Close())
	}
	// Threads produce records concurrently; the write into the shared
	// task stream is serialized, as OpenMP threads would serialize
	// their SIONlib calls.
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, nthreads)
	for tid := 0; tid < nthreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < nrecords && errs[tid] == nil; i++ {
				mu.Lock()
				errs[tid] = kw.WriteKey(uint64(tid), record(c.Rank(), tid, i))
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	return errors.Join(append(errs, f.Close())...)
}

// check reads every thread stream of one task back (post-mortem, serial)
// and compares it with what the threads wrote.
func check(fsys fsio.FileSystem, rank int) error {
	f, err := sion.OpenRank(fsys, "hybrid.sion", rank)
	if err != nil {
		return err
	}
	defer f.Close()
	kr, err := sion.NewKeyReader(f)
	if err != nil {
		return err
	}
	if keys := kr.Keys(); len(keys) != nthreads {
		return fmt.Errorf("task %d holds thread keys %v, want %d", rank, keys, nthreads)
	}
	for tid := 0; tid < nthreads; tid++ {
		var want []byte
		for i := 0; i < nrecords; i++ {
			want = append(want, record(rank, tid, i)...)
		}
		got, err := kr.ReadKey(uint64(tid))
		if err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("task %d, thread %d read back %q (%v), want %q", rank, tid, got, err, want)
		}
	}
	fmt.Printf("task %d: %d thread streams of %d records read back exactly\n", rank, nthreads, nrecords)
	return nil
}

func run(dir string) error {
	fsys := fsio.NewOS(dir)
	errs := make([]error, ntasks)
	mpi.Run(ntasks, func(c *mpi.Comm) { errs[c.Rank()] = task(c, fsys) })
	for r := 0; r < ntasks && errs[r] == nil; r++ {
		errs[r] = check(fsys, r)
	}
	return errors.Join(errs...)
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
