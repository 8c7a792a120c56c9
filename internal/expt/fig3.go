package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Fig3a regenerates Figure 3(a): time to create new and to open existing
// task-local files in parallel in one directory on Jugene, against the
// creation of a SIONlib multifile, for 4K–64K tasks.
func Fig3a(scale int) *Result {
	return fig3("fig3a", "jugene", []int{4096, 8192, 16384, 32768, 65536}, scale,
		"Fig. 3a: parallel create/open of task-local files vs SION create (Jugene)")
}

// Fig3b regenerates Figure 3(b) on Jaguar for 256–12K tasks.
func Fig3b(scale int) *Result {
	return fig3("fig3b", "jaguar", []int{256, 1024, 2048, 4096, 8192, 12288}, scale,
		"Fig. 3b: parallel create/open of task-local files vs SION create (Jaguar)")
}

func fig3(name, machine string, counts []int, scale int, title string) *Result {
	res := &Result{
		Name:   name,
		Title:  title,
		Header: []string{"tasks", "create(s)", "open(s)", "SION create(s)"},
	}
	for _, n0 := range counts {
		n := scaleDown(n0, scale, 2)
		prof := profileByName(machine)

		// Phase 1: every task creates its own file in one directory.
		fs := simfs.New(prof)
		tCreate := simRun(fs, n, func(c *mpi.Comm, v fsio.FileSystem) {
			fh, err := v.Create(taskFileName(c.Rank()))
			check(err == nil, "%s: create, rank %d: %v", name, c.Rank(), err)
			err = fh.Close()
			check(err == nil, "%s: close created file, rank %d: %v", name, c.Rank(), err)
		})

		// Phase 2: reopen the now-existing files (cold caches, fresh job).
		fs.DropCaches()
		fs.ResetServers()
		tOpen := simRun(fs, n, func(c *mpi.Comm, v fsio.FileSystem) {
			fh, err := v.Open(taskFileName(c.Rank()))
			check(err == nil, "%s: open, rank %d: %v", name, c.Rank(), err)
			err = fh.Close()
			check(err == nil, "%s: close opened file, rank %d: %v", name, c.Rank(), err)
		})

		// Phase 3: one SIONlib multifile instead (collective create+close).
		fs2 := simfs.New(prof)
		tSion := simRun(fs2, n, func(c *mpi.Comm, v fsio.FileSystem) {
			f, err := sion.ParOpen(c, v, "data/all.sion", sion.WriteMode,
				&sion.Options{ChunkSize: 2 << 20})
			check(err == nil, "%s: SION create, rank %d: %v", name, c.Rank(), err)
			err = f.Close()
			check(err == nil, "%s: SION close, rank %d: %v", name, c.Rank(), err)
		})

		res.Rows = append(res.Rows, []string{kfmt(n), secs(tCreate), secs(tOpen), secs(tSion)})
	}
	res.Notes = append(res.Notes,
		"paper anchors: Jugene 64k create ≈ 370 s, open ≈ 60 s, SION < 3 s; Jaguar 12k create ≈ 300 s, open ≈ 20 s, SION < 10 s")
	return res
}

func taskFileName(rank int) string { return fmt.Sprintf("data/task-%07d.bin", rank) }
