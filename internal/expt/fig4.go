package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// bwPair measures the write and read bandwidth of one multifile
// configuration: total bytes spread over ntasks tasks and nfiles physical
// files, chunks equal to the per-task share. The timed windows exclude the
// collective opens (the paper reports pure transfer bandwidth).
func bwPair(fs *simfs.FS, ntasks, nfiles int, total int64, fsblk int64) (write, read float64) {
	perTask := total / int64(ntasks)
	var tw, tr float64
	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		f, err := sion.ParOpen(c, v, "data/bench.sion", sion.WriteMode,
			&sion.Options{ChunkSize: perTask, NFiles: nfiles, FSBlockSize: fsblk})
		check(err == nil, "bwPair: write open, rank %d: %v", c.Rank(), err)
		t0 := syncStart(c)
		err = f.WriteSynthetic(perTask)
		check(err == nil, "bwPair: write, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			tw = t
		}
		err = f.Close()
		check(err == nil, "bwPair: write close, rank %d: %v", c.Rank(), err)

		r, err := sion.ParOpen(c, v, "data/bench.sion", sion.ReadMode, nil)
		check(err == nil, "bwPair: read open, rank %d: %v", c.Rank(), err)
		t1 := syncStart(c)
		_, err = r.ReadSynthetic(perTask)
		check(err == nil, "bwPair: read, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t1; c.Rank() == 0 {
			tr = t
		}
		err = r.Close()
		check(err == nil, "bwPair: read close, rank %d: %v", c.Rank(), err)
	})
	return float64(total) / tw / 1e6, float64(total) / tr / 1e6
}

// Fig4a regenerates Figure 4(a): bandwidth vs number of underlying
// physical files on Jugene (64K tasks, 1 TB).
func Fig4a(scale int) *Result {
	res := &Result{
		Name:   "fig4a",
		Title:  "Fig. 4a: bandwidth vs #physical files (Jugene, 64k tasks, 1 TB)",
		Header: []string{"files", "write(MB/s)", "read(MB/s)"},
	}
	ntasks := scaleDown(65536, scale, 64)
	total := int64(1<<40) / int64(scale)
	for _, nf := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if nf > ntasks {
			break
		}
		fs := simfs.New(simfs.Jugene())
		w, r := bwPair(fs, ntasks, nf, total, 0)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", nf),
			fmt.Sprintf("%.0f", w), fmt.Sprintf("%.0f", r)})
	}
	res.Notes = append(res.Notes,
		"paper shape: rises from ≈2–2.5 GB/s at 1 file, saturates between 8 and 32 files near the 6 GB/s system peak")
	return res
}

// Fig4b regenerates Figure 4(b): bandwidth vs number of physical files on
// Jaguar (2K tasks, 1 TB) under the default Lustre striping (4 OSTs, 1 MB)
// and the optimized striping (64 OSTs, 8 MB).
func Fig4b(scale int) *Result {
	res := &Result{
		Name:  "fig4b",
		Title: "Fig. 4b: bandwidth vs #physical files, default vs optimized striping (Jaguar, 2k tasks, 1 TB)",
		Header: []string{"files", "write-opt(MB/s)", "read-opt(MB/s)",
			"write-def(MB/s)", "read-def(MB/s)"},
	}
	ntasks := scaleDown(2048, scale, 64)
	total := int64(1<<40) / int64(scale)
	for _, nf := range []int{1, 2, 4, 8, 16, 32, 64} {
		if nf > ntasks {
			break
		}
		fsOpt := simfs.New(simfs.Jaguar())
		fsOpt.SetStriping("data", 64, 8<<20)
		wo, ro := bwPair(fsOpt, ntasks, nf, total, 0)

		fsDef := simfs.New(simfs.Jaguar()) // default: 4 OSTs × 1 MB
		wd, rd := bwPair(fsDef, ntasks, nf, total, 0)

		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", nf),
			fmt.Sprintf("%.0f", wo), fmt.Sprintf("%.0f", ro),
			fmt.Sprintf("%.0f", wd), fmt.Sprintf("%.0f", rd)})
	}
	res.Notes = append(res.Notes,
		"paper shape: default striping climbs steadily to ≈32 files; optimized is good from 2 files on and always superior")
	return res
}
