package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Table 3 (extension): request reduction and overlap from collective I/O.
// The paper's central lever is coalescing many small per-task requests
// into few large aligned ones; SIONlib's later collective extension and
// CkIO (arXiv:2411.18593) push the same lever further by routing all file
// traffic through designated collector tasks and, in the asynchronous
// variant, overlapping aggregation with computation. This experiment
// quantifies both effects on the simulated machine with the per-file
// request counters of simfs:
//
//   - direct:           every task opens the multifile and issues one
//     request per record (the paper's baseline SIONlib
//     mode, already aligned and metadata-cheap);
//   - collective:       only ⌈ntasks/group⌉ collectors open the file;
//     members ship buffered data at close and the
//     collector issues one large write per member chunk;
//     reads are prefetched by the collectors at open with
//     one span read per block covering the whole group
//     (ParOpen's read mode is the mapped open), so
//     rd reqs is collectors × blocks plus the metadata
//     reads;
//   - async-collective: same request pattern as collective, but members
//     stream full staging buffers to their collector
//     during the compute phase, so collector writes
//     overlap computation instead of queueing after it.
//     Staging buffers are half a chunk (core's flush
//     unit): four flushes per member spread the
//     collectors' shared-link traffic across the compute
//     phase, which is where the async win comes from.
//
// The workload is a small-record emitter (tab3Record bytes per call, the
// Fig. 6 checkpoint regime where per-request latency dominates), with
// tab3Compute seconds of computation between records.
//
// Two more rows use one-FS-block chunks, direct and with the group left to
// CollectorAuto (Zhang et al.'s loosely coupled aggregation sizing,
// arXiv:0901.0134); at 1 MiB chunks auto would resolve to direct.
const (
	tab3Tasks   = 128
	tab3Group   = 16
	tab3Chunk   = int64(1) << 20  // 16 FS blocks per chunk on tab3's profile
	tab3Small   = int64(64) << 10 // one FS block: the auto rows' chunk
	tab3BlocksN = 2               // chunks (blocks) of data per task
	tab3Record  = 128             // bytes per write/read call
	tab3Compute = 20e-6           // seconds of computation per record
)

// tab3Profile is Jugene with 64 KiB file-system blocks: small-chunk
// workloads stay block-aligned (no token stealing, as in the paper's
// aligned runs) while the first-touch block charges do not drown the
// per-request costs this experiment isolates.
func tab3Profile() *simfs.Profile {
	p := simfs.Jugene()
	p.Name = "jugene-64k"
	p.FSBlockSize = 64 << 10
	return p
}

// tab3Mode runs one write+read cycle in the given mode and chunk size and
// reports the simulated wall times and the multifile's request counters.
func tab3Mode(ntasks int, chunk int64, group int, async bool) (writeT, readT float64, wst, rst simfs.FileStats) {
	fs := simfs.New(tab3Profile())
	perTask := tab3BlocksN * chunk
	nrec := int(perTask / tab3Record)

	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		f, err := sion.ParOpen(c, v, "tab3.sion", sion.WriteMode, &sion.Options{
			ChunkSize: chunk, CollectorGroup: group, AsyncCollective: async,
		})
		check(err == nil, "tab3: write open, rank %d: %v", c.Rank(), err)
		rec := make([]byte, tab3Record)
		for i := 0; i < nrec; i++ {
			c.Advance(tab3Compute)
			_, err := f.Write(rec)
			check(err == nil, "tab3: write, rank %d: %v", c.Rank(), err)
		}
		err = f.Close()
		check(err == nil, "tab3: write close, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			writeT = t
		}
	})
	wst, _ = fs.Stats("tab3.sion")

	// Fresh measurement window and cold caches for the read-back phase.
	fs.ResetServers()
	fs.DropCaches()

	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		var opts *sion.Options
		if group != 0 {
			opts = &sion.Options{CollectorGroup: group}
		}
		f, err := sion.ParOpen(c, v, "tab3.sion", sion.ReadMode, opts)
		check(err == nil, "tab3: read open, rank %d: %v", c.Rank(), err)
		buf := make([]byte, tab3Record)
		for !f.EOF() {
			_, err := f.Read(buf)
			check(err == nil, "tab3: read, rank %d: %v", c.Rank(), err)
		}
		err = f.Close()
		check(err == nil, "tab3: read close, rank %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			readT = t
		}
	})
	st, _ := fs.Stats("tab3.sion")
	rst = simfs.FileStats{
		Opens:        st.Opens - wst.Opens,
		ReadRequests: st.ReadRequests - wst.ReadRequests,
		ReaderTasks:  st.ReaderTasks,
	}
	return writeT, readT, wst, rst
}

// Table3 regenerates the collective-I/O request-reduction table: direct
// vs. collective vs. async-collective writes and reads of a small-record
// workload, with per-file open/request/client counts from the simulated
// file system proving that only ⌈ntasks/group⌉ tasks touch the file in
// the collective modes.
func Table3(scale int) *Result {
	res := &Result{
		Name:  "tab3",
		Title: "Table 3 (ext): request reduction with (async) collective I/O, small-record workload (jugene, 64 KiB blocks)",
		Header: []string{"I/O mode", "tasks", "opens", "wr tasks", "wr reqs",
			"write(s)", "rd tasks", "rd reqs", "read(s)"},
	}
	ntasks := scaleDown(tab3Tasks, scale, 64)
	group := tab3Group
	if group > ntasks {
		group = ntasks
	}

	type mode struct {
		label string
		chunk int64
		group int
		async bool
	}
	var auto [2]int // the group CollectorAuto resolved on write and on read
	for _, m := range []mode{
		{"direct", tab3Chunk, 0, false},
		{"collective", tab3Chunk, group, false},
		{"async-collective", tab3Chunk, group, true},
		{"direct 64k", tab3Small, 0, false},
		{"auto-coll 64k", tab3Small, sion.CollectorAuto, true},
	} {
		writeT, readT, wst, rst := tab3Mode(ntasks, m.chunk, m.group, m.async)
		if m.group == sion.CollectorAuto { // only collectors touch the file
			auto = [2]int{ntasks / wst.WriterTasks, ntasks / rst.ReaderTasks}
		}
		res.Rows = append(res.Rows, []string{
			m.label, kfmt(ntasks),
			fmt.Sprintf("%d", wst.Opens+rst.Opens),
			fmt.Sprintf("%d", wst.WriterTasks),
			fmt.Sprintf("%d", wst.WriteRequests),
			fmt.Sprintf("%.3f", writeT),
			fmt.Sprintf("%d", rst.ReaderTasks),
			fmt.Sprintf("%d", rst.ReadRequests),
			fmt.Sprintf("%.3f", readT),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("collector group %d (⌈%d/%d⌉ = %d collectors); %d B records, %d × %d KiB chunks per task, %.0f µs compute per record",
			group, ntasks, group, (ntasks+group-1)/group, tab3Record, tab3BlocksN, tab3Chunk>>10, tab3Compute*1e6),
		"expected ordering: async-collective ≤ collective ≤ direct in simulated wall time",
		"async-collective ships full staging buffers during computation (double-buffered members, background collector flush)",
		fmt.Sprintf("64k rows: %d KiB chunks (one FS block); CollectorAuto resolved to groups of %d on write and %d on read",
			tab3Small>>10, auto[0], auto[1]))
	return res
}
