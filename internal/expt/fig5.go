package expt

import (
	"fmt"

	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// taskLocalBW measures write and read bandwidth of the traditional
// multiple-file-parallel method: one physical file per task. File creation
// happens before the timed window (the paper reports transfer bandwidth;
// creation cost is Fig. 3's subject).
func taskLocalBW(fs *simfs.FS, ntasks int, total int64) (write, read float64) {
	perTask := total / int64(ntasks)
	var tw, tr float64
	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		fh, err := v.Create(taskFileName(c.Rank()))
		check(err == nil, "taskLocalBW: create, rank %d: %v", c.Rank(), err)
		t0 := syncStart(c)
		err = fh.WriteZeroAt(perTask, 0)
		check(err == nil, "taskLocalBW: write, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			tw = t
		}
		err = fh.Close()
		check(err == nil, "taskLocalBW: write close, rank %d: %v", c.Rank(), err)

		rh, err := v.Open(taskFileName(c.Rank()))
		check(err == nil, "taskLocalBW: open, rank %d: %v", c.Rank(), err)
		t1 := syncStart(c)
		_, err = rh.ReadDiscardAt(perTask, 0)
		check(err == nil, "taskLocalBW: read, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t1; c.Rank() == 0 {
			tr = t
		}
		err = rh.Close()
		check(err == nil, "taskLocalBW: read close, rank %d: %v", c.Rank(), err)
	})
	return float64(total) / tw / 1e6, float64(total) / tr / 1e6
}

// Fig5a regenerates Figure 5(a): SIONlib (32 physical files) vs parallel
// I/O to physical task-local files on Jugene, 1K–64K tasks, 1 TB.
func Fig5a(scale int) *Result {
	res := &Result{
		Name:  "fig5a",
		Title: "Fig. 5a: SION (32 files) vs task-local files bandwidth (Jugene, 1 TB)",
		Header: []string{"tasks", "SION write", "SION read",
			"task-local write", "task-local read", "(MB/s)"},
	}
	total := int64(1<<40) / int64(scale)
	for _, n0 := range []int{1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		n := scaleDown(n0, scale, 64)
		nfiles := 32
		if nfiles > n {
			nfiles = n
		}
		fs := simfs.New(simfs.Jugene())
		sw, sr := bwPair(fs, n, nfiles, total, 0)
		fs2 := simfs.New(simfs.Jugene())
		tw, tr := taskLocalBW(fs2, n, total)
		res.Rows = append(res.Rows, []string{kfmt(n),
			fmt.Sprintf("%.0f", sw), fmt.Sprintf("%.0f", sr),
			fmt.Sprintf("%.0f", tw), fmt.Sprintf("%.0f", tr), ""})
	}
	res.Notes = append(res.Notes,
		"paper shape: both saturate at ≥8k tasks near 6 GB/s, SIONlib marginally better")
	return res
}

// Fig5b regenerates Figure 5(b) on Jaguar, 128–12K tasks, 2 TB, with the
// optimized striping for the multifile (the configuration §4.2.1 selects)
// and Lustre's default striping for the task-local files.
func Fig5b(scale int) *Result {
	res := &Result{
		Name:  "fig5b",
		Title: "Fig. 5b: SION (32 files) vs task-local files bandwidth (Jaguar, 2 TB)",
		Header: []string{"tasks", "SION write", "SION read",
			"task-local write", "task-local read", "(MB/s)"},
	}
	total := int64(2<<40) / int64(scale)
	for _, n0 := range []int{128, 256, 512, 1024, 2048, 4096, 8192, 12288} {
		n := scaleDown(n0, scale, 32)
		nfiles := 32
		if nfiles > n {
			nfiles = n
		}
		fs := simfs.New(simfs.Jaguar())
		fs.SetStriping("data", 64, 8<<20)
		sw, sr := bwPair(fs, n, nfiles, total, 0)
		fs2 := simfs.New(simfs.Jaguar())
		tw, tr := taskLocalBW(fs2, n, total)
		res.Rows = append(res.Rows, []string{kfmt(n),
			fmt.Sprintf("%.0f", sw), fmt.Sprintf("%.0f", sr),
			fmt.Sprintf("%.0f", tw), fmt.Sprintf("%.0f", tr), ""})
	}
	res.Notes = append(res.Notes,
		"paper shape: SION write better in most cases; SION read better only ≥1k tasks; reads exceed the 40 GB/s peak via client caching")
	return res
}
