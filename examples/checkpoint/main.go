// Checkpoint: the restart-file I/O of an MP2C-style particle code (paper
// §5.1) on 16 parallel tasks. Every task owns a different number of
// particles, so every task asks for its own chunk size. The tasks write
// one restart file through SIONlib (52-byte particle records, all
// task-local files in one physical file), drop the in-memory state,
// restore it from the multifile and compare bit for bit; a difference is
// an error and a non-zero exit. How this compares with the single-file
// sequential and the task-local methods is what experiment fig6 measures.
//
// Run with: go run ./examples/checkpoint [dir]
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

const (
	ntasks  = 16
	perTask = 5000 // task r owns perTask + 97·r particles

	// particleBytes is the restart record of one particle (paper §5.1,
	// Fig. 6): 3×float64 position, 3×float64 velocity, uint32 id.
	particleBytes = 52
)

type particle struct {
	pos, vel [3]float64
	id       uint32
}

func encode(ps []particle) []byte {
	out := make([]byte, len(ps)*particleBytes)
	le := binary.LittleEndian
	for i := range ps {
		rec := out[i*particleBytes:]
		for d := 0; d < 3; d++ {
			le.PutUint64(rec[8*d:], math.Float64bits(ps[i].pos[d]))
			le.PutUint64(rec[24+8*d:], math.Float64bits(ps[i].vel[d]))
		}
		le.PutUint32(rec[48:], ps[i].id)
	}
	return out
}

func decode(data []byte) ([]particle, error) {
	if len(data)%particleBytes != 0 {
		return nil, fmt.Errorf("restart data of %d bytes is not a multiple of the %d-byte record", len(data), particleBytes)
	}
	ps := make([]particle, len(data)/particleBytes)
	le := binary.LittleEndian
	for i := range ps {
		rec := data[i*particleBytes:]
		for d := 0; d < 3; d++ {
			ps[i].pos[d] = math.Float64frombits(le.Uint64(rec[8*d:]))
			ps[i].vel[d] = math.Float64frombits(le.Uint64(rec[24+8*d:]))
		}
		ps[i].id = le.Uint32(rec[48:])
	}
	return ps, nil
}

// newSystem is task rank's share of the unit box, deterministically seeded.
func newSystem(rank int) []particle {
	rng := rand.New(rand.NewSource(42 + int64(rank)*7919))
	ps := make([]particle, perTask+97*rank)
	for i := range ps {
		for d := 0; d < 3; d++ {
			ps[i].pos[d] = rng.Float64()
			ps[i].vel[d] = rng.NormFloat64() * 0.1
		}
		ps[i].id = uint32(rank)<<20 | uint32(i)
	}
	return ps
}

// checkpoint writes the task's particles as its logical file of the
// multifile. Collective: the chunk size is this task's own data size.
func checkpoint(c *mpi.Comm, fsys fsio.FileSystem, name string, ps []particle) error {
	data := encode(ps)
	f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{ChunkSize: int64(len(data))})
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil { // Close is collective: reach it on every path
		err = cerr
	}
	return err
}

// restart reads the task's particles back. Collective.
func restart(c *mpi.Comm, fsys fsio.FileSystem, name string) ([]particle, error) {
	f, err := sion.ParOpen(c, fsys, name, sion.ReadMode, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close() // collective too
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// task is one rank's run: checkpoint, lose the state, restart, compare.
func task(c *mpi.Comm, fsys fsio.FileSystem) error {
	const name = "mp2c-restart.sion"
	ps := newSystem(c.Rank())
	if err := checkpoint(c, fsys, name, ps); err != nil {
		return fmt.Errorf("rank %d: checkpoint: %w", c.Rank(), err)
	}
	saved := ps
	ps, err := restart(c, fsys, name)
	if err != nil {
		return fmt.Errorf("rank %d: restart: %w", c.Rank(), err)
	}
	if len(ps) != len(saved) {
		return fmt.Errorf("rank %d: restored %d particles, had %d", c.Rank(), len(ps), len(saved))
	}
	for i := range saved {
		if ps[i] != saved[i] {
			return fmt.Errorf("rank %d: particle %d differs after restart", c.Rank(), i)
		}
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
	fmt.Printf("%d tasks x %d..%d particles (%d-byte records): restart verified bit-exact\n",
		ntasks, perTask, perTask+97*(ntasks-1), particleBytes)
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
