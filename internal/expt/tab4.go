package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Table 4 (extension): request reduction from buffered staging I/O on the
// direct path. Table 3 shows what routing traffic through collector tasks
// buys; this experiment isolates the orthogonal, purely client-local
// lever: write-behind and read-ahead staging (internal/core/buffer.go)
// coalesce a small-record workload's per-call requests into few large
// FS-block-aligned ones without any extra communication — every task
// still opens the multifile itself, so this is the mode of choice when
// collective exchange is unwanted (e.g. task-asynchronous checkpointing).
// The multifile written through the staging layer is byte-identical to
// the unbuffered one (asserted by tab4_test).
//
// Workload: the Fig. 6 small-record checkpoint regime of tab3 —
// tab4Record bytes per Write/Read with tab4Compute seconds of compute
// between records, tab4BlocksN chunks of tab4Chunk bytes per task.
const (
	tab4Tasks   = 128
	tab4Chunk   = int64(1) << 20 // 16 FS blocks per chunk on tab3's profile
	tab4BlocksN = 2              // chunks (blocks) of data per task
	tab4Record  = 128            // bytes per write/read call
	tab4Compute = 20e-6          // seconds of computation per record
)

// tab4Mode runs one write+read cycle in direct mode with the given
// staging-buffer size (0 = unbuffered) and reports the simulated wall
// times and the multifile's request counters.
func tab4Mode(ntasks int, bufSize int64) (writeT, readT float64, wst, rst simfs.FileStats) {
	fs := simfs.New(tab4Profile())
	perTask := tab4BlocksN * tab4Chunk
	nrec := int(perTask / tab4Record)

	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		f, err := sion.ParOpen(c, v, "tab4.sion", sion.WriteMode, &sion.Options{
			ChunkSize: tab4Chunk, BufferSize: bufSize,
		})
		check(err == nil, "tab4: write open, rank %d: %v", c.Rank(), err)
		rec := make([]byte, tab4Record)
		for i := 0; i < nrec; i++ {
			c.Advance(tab4Compute)
			_, err := f.Write(rec)
			check(err == nil, "tab4: write, rank %d: %v", c.Rank(), err)
		}
		err = f.Close()
		check(err == nil, "tab4: write close, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			writeT = t
		}
	})
	wst, _ = fs.Stats("tab4.sion")

	// Fresh measurement window and cold caches for the read-back phase.
	fs.ResetServers()
	fs.DropCaches()

	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		var opts *sion.Options
		if bufSize != 0 {
			opts = &sion.Options{BufferSize: bufSize}
		}
		f, err := sion.ParOpen(c, v, "tab4.sion", sion.ReadMode, opts)
		check(err == nil, "tab4: read open, rank %d: %v", c.Rank(), err)
		buf := make([]byte, tab4Record)
		for !f.EOF() {
			_, err := f.Read(buf)
			check(err == nil, "tab4: read, rank %d: %v", c.Rank(), err)
		}
		err = f.Close()
		check(err == nil, "tab4: read close, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			readT = t
		}
	})
	st, _ := fs.Stats("tab4.sion")
	rst = simfs.FileStats{
		Opens:        st.Opens - wst.Opens,
		ReadRequests: st.ReadRequests - wst.ReadRequests,
		ReaderTasks:  st.ReaderTasks,
	}
	return writeT, readT, wst, rst
}

// tab4Profile is tab3's machine: Jugene with 64 KiB file-system blocks,
// so the per-request costs this experiment isolates are not drowned by
// first-touch block charges.
func tab4Profile() *simfs.Profile {
	return renamed(tab3Profile(), "jugene-64k-tab4")
}

// Table4 regenerates the buffered-staging request-reduction table: the
// small-record workload written and read back unbuffered, with a
// one-FS-block staging buffer, and with the auto-tuned buffer
// (BufferAuto = one chunk capacity), with per-file request counts from
// the simulated file system proving the coalescing claim.
func Table4(scale int) *Result {
	res := &Result{
		Name:   "tab4",
		Title:  "Table 4 (ext): request reduction with buffered staging I/O, direct path, small-record workload (jugene, 64 KiB blocks)",
		Header: []string{"I/O mode", "tasks", "wr reqs", "write(s)", "rd reqs", "read(s)"},
	}
	ntasks := scaleDown(tab4Tasks, scale, 64)
	fsblk := tab4Profile().FSBlockSize

	type mode struct {
		label   string
		bufSize int64
	}
	for _, m := range []mode{
		{"direct", 0},
		{"buffered-1blk", fsblk},
		{"buffered-auto", sion.BufferAuto},
	} {
		writeT, readT, wst, rst := tab4Mode(ntasks, m.bufSize)
		res.Rows = append(res.Rows, []string{
			m.label, kfmt(ntasks),
			fmt.Sprintf("%d", wst.WriteRequests),
			fmt.Sprintf("%.3f", writeT),
			fmt.Sprintf("%d", rst.ReadRequests),
			fmt.Sprintf("%.3f", readT),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d B records, %d × %d KiB chunks per task, %.0f µs compute per record; auto buffer = one chunk capacity",
			tab4Record, tab4BlocksN, tab4Chunk>>10, tab4Compute*1e6),
		"expected: buffered-auto ≤ buffered-1blk ≤ direct in request counts, and both buffered modes well below direct in simulated wall time",
		"unlike tab3's collective modes, every task still opens the file itself: the reduction is purely client-local coalescing")
	return res
}
