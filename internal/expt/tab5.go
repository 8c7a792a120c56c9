package expt

import (
	"bytes"
	"fmt"
	"io"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Table 5 (extension): rescaled reopen through mapped open. The paper's
// read-back experiments keep the task count fixed, but restart and
// post-processing jobs routinely reopen a checkpoint with a different
// number of tasks — the scenario SIONlib serves with sion_paropen_mapped
// and that CkIO (arXiv:2411.18593) decouples readers from workers for.
// This experiment writes one multifile with tab5Writers tasks and reopens
// it with M ∈ tab5Readers readers (fewer, more, and far more than the
// writers), in two mapped read modes:
//
//   - direct: every reader with owned ranks opens the file and issues one
//     read per owned (rank, block) chunk region;
//   - collective: groups of tab5Group consecutive readers route all reads
//     through their collector, which — because balanced ownership spans
//     are contiguous chunk runs — fetches one dense span per block of the
//     physical file, so at most ⌈M/group⌉ readers touch the file and the
//     data moves in ≤ ⌈M/group⌉ · blocks large reads (plus the handful of
//     metadata reads at open).
//
// Every reader verifies its owned ranks byte-for-byte against the written
// payloads, so the table doubles as an end-to-end N→M restart correctness
// check at scale.
const (
	tab5Writers = 1024
	tab5Chunk   = int64(64) << 10 // one 64 KiB FS block per chunk
	tab5BlocksN = 2               // blocks each writer fills (1.5 chunks used)
	tab5Group   = 16
)

// tab5Readers are the reopen task counts (before scaling): rescaling down
// 32×, down 4×, and up 4× relative to the 1024 writers.
var tab5Readers = [3]int{32, 256, 4096}

// tab5Mode writes the multifile with nwriters tasks and reopens it with
// nreaders mapped readers (group 0 = direct), verifying every writer
// rank's bytes exactly once and reporting the read-phase wall time and
// request counters.
func tab5Mode(nwriters, nreaders, group int) (readT float64, rst simfs.FileStats) {
	// tab3's machine, so chunks stay block-aligned and per-request costs
	// are visible.
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab5"))
	size := func(g int) int { return payloadSize(tab5Chunk, g) }
	wst := writeDump(fs, nwriters, "tab5.sion", &sion.Options{ChunkSize: tab5Chunk}, size)

	recovered := make([]bool, nwriters) // balanced ownership: disjoint slots
	simRun(fs, nreaders, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		var opts *sion.Options
		if group != 0 {
			opts = &sion.Options{CollectorGroup: group}
		}
		mf, err := sion.ParOpenMapped(c, v, "tab5.sion", sion.ReadMode, nil, opts)
		check(err == nil, "tab5: mapped open, reader %d: %v", c.Rank(), err)
		for _, g := range mf.OwnedRanks() {
			h, err := mf.Rank(g)
			check(err == nil, "tab5: reader %d: Rank(%d): %v", c.Rank(), g, err)
			want := taskPayload(g, size(g))
			got := make([]byte, len(want))
			_, err = io.ReadFull(h, got)
			check(err == nil, "tab5: rank %d: %v", g, err)
			check(bytes.Equal(got, want), "tab5: rank %d: bytes differ after rescaled reopen", g)
			recovered[g] = true
		}
		err = mf.Close()
		check(err == nil, "tab5: mapped close, reader %d: %v", c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			readT = t
		}
	})
	for g, ok := range recovered {
		check(ok, "tab5: rank %d not recovered by any reader", g)
	}
	st := dumpStats(fs, "tab5.sion", 1)
	rst = simfs.FileStats{
		Opens:        st.Opens - wst.Opens,
		ReadRequests: st.ReadRequests - wst.ReadRequests,
		ReaderTasks:  st.ReaderTasks,
	}
	return readT, rst
}

// Table5 regenerates the rescaled-reopen table: one multifile written by N
// tasks, reopened by M ∈ {N/32, N/4, 4N} mapped readers in direct and
// collective mode, with request counters proving the ⌈M/group⌉ collector
// bound and byte-identity asserted in-run.
func Table5(scale int) *Result {
	res := &Result{
		Name:   "tab5",
		Title:  "Table 5 (ext): rescaled reopen (N writers -> M mapped readers), jugene, 64 KiB blocks",
		Header: []string{"read mode", "writers", "readers", "rd tasks", "rd reqs", "read(s)"},
	}
	nwriters := scaleDown(tab5Writers, scale, 64)
	for _, mr := range tab5Readers {
		nreaders := scaleDown(mr, scale, 2)
		for _, m := range []struct {
			label string
			group int
		}{
			{"direct", 0},
			{fmt.Sprintf("collective-%d", tab5Group), tab5Group},
		} {
			readT, rst := tab5Mode(nwriters, nreaders, m.group)
			res.Rows = append(res.Rows, []string{
				m.label, kfmt(nwriters), kfmt(nreaders),
				fmt.Sprintf("%d", rst.ReaderTasks),
				fmt.Sprintf("%d", rst.ReadRequests),
				fmt.Sprintf("%.3f", readT),
			})
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d KiB chunks, %d blocks per writer, ~1.5 chunks of payload per writer; balanced contiguous ownership",
			tab5Chunk>>10, tab5BlocksN),
		"byte identity of every writer rank asserted in-run for every (M, mode) cell",
		fmt.Sprintf("collective bound: ≤ ⌈M/%d⌉ collectors touch the file, issuing ≤ ⌈M/%d⌉·%d span reads + ~6 metadata reads at open",
			tab5Group, tab5Group, tab5BlocksN),
		"direct mode issues one read per owned (rank, block) region: ~N·blocks requests overall, from min(M,N) readers")
	return res
}
