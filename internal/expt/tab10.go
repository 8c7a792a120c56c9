package expt

import (
	"bytes"
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Table 10 (extension): capability-driven geometry auto-tuning across
// storage backends. The same small-record checkpoint workload (write a
// per-task payload in records, read it all back) runs on three
// backend/geometry arms:
//
//   - posix: the plain simulated POSIX file system with the historical
//     defaults (one physical file, unbuffered direct writes) — the
//     baseline every earlier table used.
//   - objstore-posixtune: the simulated object store (internal/simfs
//     ObjStore, smallpart profile) driven with POSIX-tuned geometry —
//     64 KiB "FS blocks", one physical file, staging explicitly off
//     (sion.BufferOff). Chunks land part-misaligned, so neighbor ranks
//     share part regions and every sharing flush pays a staged copy;
//     unbuffered reads cost one ranged GET per record.
//   - objstore-auto: the identical workload with zero-value geometry
//     options. Rank 0 broadcasts its block size and the backend's four
//     capability numbers in one collective, and withDefaults auto-tunes
//     from them: the part size becomes the FS block size (chunks
//     part-aligned), BufferSize upgrades to BufferAuto (whole parts per
//     PUT, whole buffers per GET), and NFiles follows the declared write
//     fanout.
//
// The experiment asserts in-run (panicking on violation) that every arm
// reads back each rank's exact payload — the backends hold logically
// identical multifiles — and that the auto-tuned arm issues at most half
// the object-store requests of the POSIX-tuned arm. TestTable10Findings
// pins the geometry the tuning picked, and TestGolden the request totals
// at scale 16.
const (
	tab10Tasks   = 64
	tab10Chunk   = int64(2) << 20 // two smallpart parts per task
	tab10Record  = 4 << 10        // bytes per Write/Read call
	tab10Compute = 10e-6          // seconds of compute per record
)

// tab10Arm is one backend/geometry configuration of the sweep.
type tab10Arm struct {
	label string
	obj   bool
	wopts func() *sion.Options
	ropts func() *sion.Options
}

// tab10Row is one arm's measured outcome.
type tab10Row struct {
	writeT, readT  float64
	wrReqs, rdReqs int64 // backend requests (simfs counters or PUT/GET ledger)
	copies         int64 // staged copies (objstore arms)
	total          int64 // total object-store requests (0 for posix)
	nfiles         int
	fsblk          int64
}

// tab10Run executes the write+read-back cycle on one arm. Byte identity
// is asserted inline: every rank's read-back must equal its generator
// payload exactly.
func tab10Run(ntasks int, arm tab10Arm) tab10Row {
	// The inner machine the object store gateways to is tab3's.
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab10"))
	var obj *simfs.ObjStore
	if arm.obj {
		obj = simfs.NewObjStore(simfs.SmallPartObjProfile())
	}
	// Each rank binds its own wrap of the shared gateway so request
	// latency advances that rank's virtual clock.
	bind := func(c *mpi.Comm, v fsio.FileSystem) fsio.FileSystem {
		if obj == nil {
			return v
		}
		return obj.Wrap(v, func(s float64) { c.Advance(s) })
	}
	perTask := int(tab10Chunk)
	nrec := perTask / tab10Record

	var row tab10Row
	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		f, err := sion.ParOpen(c, bind(c, v), "tab10.sion", sion.WriteMode, arm.wopts())
		check(err == nil, "tab10 %s: write open, rank %d: %v", arm.label, c.Rank(), err)
		payload := taskPayload(c.Rank(), perTask)
		for i := 0; i < nrec; i++ {
			c.Advance(tab10Compute)
			_, err := f.Write(payload[i*tab10Record : (i+1)*tab10Record])
			check(err == nil, "tab10: write, rank %d: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			row.nfiles, row.fsblk = f.NumFiles(), f.FSBlockSize()
		}
		err = f.Close()
		check(err == nil, "tab10 %s: write close, rank %d: %v", arm.label, c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			row.writeT = t
		}
	})
	wst, _ := fs.Stats("tab10.sion")
	var wLedger simfs.ObjStats
	if obj != nil {
		wLedger = obj.Stats()
	}

	// Fresh measurement window and cold caches for the read-back phase.
	fs.ResetServers()
	fs.DropCaches()

	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		t0 := syncStart(c)
		f, err := sion.ParOpen(c, bind(c, v), "tab10.sion", sion.ReadMode, arm.ropts())
		check(err == nil, "tab10 %s: read open, rank %d: %v", arm.label, c.Rank(), err)
		payload := taskPayload(c.Rank(), perTask)
		got := make([]byte, 0, perTask)
		buf := make([]byte, tab10Record)
		for !f.EOF() {
			n, err := f.Read(buf)
			check(err == nil, "tab10: read, rank %d: %v", c.Rank(), err)
			got = append(got, buf[:n]...)
		}
		check(bytes.Equal(got, payload), "tab10 %s: rank %d read %d bytes, payload differs", arm.label, c.Rank(), len(got))
		err = f.Close()
		check(err == nil, "tab10 %s: read close, rank %d: %v", arm.label, c.Rank(), err)
		if t := allMaxTime(c) - t0; c.Rank() == 0 {
			row.readT = t
		}
	})

	if obj != nil {
		st := obj.Stats()
		row.wrReqs = wLedger.Puts
		row.rdReqs = st.Gets - wLedger.Gets
		row.copies = st.Copies
		row.total = st.Requests()
	} else {
		st, _ := fs.Stats("tab10.sion")
		row.wrReqs = wst.WriteRequests
		row.rdReqs = st.ReadRequests - wst.ReadRequests
	}
	return row
}

// tab10Arms returns the sweep's arms in table order.
func tab10Arms() []tab10Arm {
	return []tab10Arm{
		{
			label: "posix",
			wopts: func() *sion.Options { return &sion.Options{ChunkSize: tab10Chunk} },
			ropts: func() *sion.Options { return nil },
		},
		{
			label: "objstore-posixtune",
			obj:   true,
			wopts: func() *sion.Options {
				return &sion.Options{
					ChunkSize: tab10Chunk, FSBlockSize: 64 << 10,
					NFiles: 1, BufferSize: sion.BufferOff,
				}
			},
			ropts: func() *sion.Options { return &sion.Options{BufferSize: sion.BufferOff} },
		},
		{
			label: "objstore-auto",
			obj:   true,
			wopts: func() *sion.Options { return &sion.Options{ChunkSize: tab10Chunk} },
			ropts: func() *sion.Options { return nil },
		},
	}
}

// Table10 regenerates the backend geometry-auto-tuning table.
func Table10(scale int) *Result {
	res := &Result{
		Name:   "tab10",
		Title:  "Table 10 (ext): capability-driven geometry auto-tuning, posix vs object-store backends, small-record workload",
		Header: []string{"backend", "tasks", "files", "fsblk(KiB)", "wr reqs", "rd reqs", "copies", "obj reqs", "write(s)", "read(s)"},
	}
	ntasks := scaleDown(tab10Tasks, scale, 16)

	var totals []int64
	for _, arm := range tab10Arms() {
		row := tab10Run(ntasks, arm)
		objCells := []string{"-", "-"}
		if arm.obj {
			objCells = []string{
				fmt.Sprintf("%d", row.copies),
				fmt.Sprintf("%d", row.total),
			}
			totals = append(totals, row.total)
		}
		res.Rows = append(res.Rows, []string{
			arm.label, kfmt(ntasks),
			fmt.Sprintf("%d", row.nfiles),
			fmt.Sprintf("%d", row.fsblk>>10),
			fmt.Sprintf("%d", row.wrReqs),
			fmt.Sprintf("%d", row.rdReqs),
			objCells[0], objCells[1],
			fmt.Sprintf("%.3f", row.writeT),
			fmt.Sprintf("%.3f", row.readT),
		})
	}
	posixTuned, auto := totals[0], totals[1]
	check(auto*2 <= posixTuned, "tab10: auto-tuned geometry issued %d object-store requests, want ≤ half of the POSIX-tuned %d",
		auto, posixTuned)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d KiB records, %d MiB per task; objstore smallpart profile: 1 MiB parts, 4 MiB GET ceiling, %.0f ms/request",
			tab10Record>>10, tab10Chunk>>20, simfs.SmallPartObjProfile().RequestSecs*1e3),
		"every arm's read-back is byte-compared to the generator payload in-run: the backends hold logically identical multifiles",
		fmt.Sprintf("auto-tuned geometry (part-aligned chunks, BufferAuto staging, fanout files) issues %.1fx fewer object-store requests than POSIX-tuned geometry (asserted ≥ 2x)",
			float64(posixTuned)/float64(auto)),
		"posix arm request counts are the simulated POSIX file system's counters; object-store arms count gateway requests (PUT/GET/HEAD/DELETE, staged copies billed as GET+PUT)")
	return res
}
