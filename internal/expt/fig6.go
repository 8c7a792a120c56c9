package expt

import (
	"fmt"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// Fig. 6 runs MP2C's restart I/O on 1000 cores of Jugene: 52 bytes per
// particle, 1000 task-local files mapped onto a single physical file, vs
// the original single-file-sequential implementation (one designated I/O
// task alternating gathers and writes, one pass per particle field).
const (
	fig6Tasks = 1000
	// MP2C's restart record (paper §5.1): 3×float64 position, 3×float64
	// velocity, uint32 id.
	fig6ParticleBytes = 52
	// The original code gathers and writes each of MP2C's per-particle
	// fields separately (3 position + 3 velocity components + id).
	fig6Fields = 7
	// Effective gather rate into the designated I/O task (strided pack +
	// tree network), and per-round software overhead.
	fig6GatherBW = 60e6
	fig6RoundLat = 5e-5
)

// Fig6 regenerates Figure 6: times for writing and reading MP2C restart
// files with and without SIONlib, 1–10000 million particles.
func Fig6(scale int) *Result {
	res := &Result{
		Name:  "fig6",
		Title: "Fig. 6: MP2C restart write/read times on 1000 cores of Jugene (52 B/particle)",
		Header: []string{"Mio particles", "write SION(s)", "read SION(s)",
			"write(s)", "read(s)"},
	}
	ntasks := scaleDown(fig6Tasks, scale, 50)
	for _, mio := range []float64{1, 3.3, 10, 33, 100, 330, 1000, 3300, 10000} {
		particles := int64(mio * 1e6 / float64(scale))
		perTask := particles / int64(ntasks) * fig6ParticleBytes
		if perTask < fig6ParticleBytes {
			perTask = fig6ParticleBytes
		}

		// SIONlib: all task-local files in one physical file.
		fs := simfs.New(simfs.Jugene())
		var tWrite, tRead float64
		simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
			t0 := syncStart(c)
			f, err := sion.ParOpen(c, v, "restart.sion", sion.WriteMode,
				&sion.Options{ChunkSize: perTask, NFiles: 1})
			check(err == nil, "fig6: write open, rank %d: %v", c.Rank(), err)
			err = f.WriteSynthetic(perTask)
			check(err == nil, "fig6: write, rank %d: %v", c.Rank(), err)
			err = f.Close()
			check(err == nil, "fig6: write close, rank %d: %v", c.Rank(), err)
			if t := allMaxTime(c) - t0; c.Rank() == 0 {
				tWrite = t
			}

			t1 := syncStart(c)
			r, err := sion.ParOpen(c, v, "restart.sion", sion.ReadMode, nil)
			check(err == nil, "fig6: read open, rank %d: %v", c.Rank(), err)
			_, err = r.ReadSynthetic(perTask)
			check(err == nil, "fig6: read, rank %d: %v", c.Rank(), err)
			err = r.Close()
			check(err == nil, "fig6: read close, rank %d: %v", c.Rank(), err)
			if t := allMaxTime(c) - t1; c.Rank() == 0 {
				tRead = t
			}
		})

		row := []string{fmt.Sprintf("%.0f", mio),
			secsf(tWrite), secsf(tRead)}

		// The single-file sequential baseline was limited to small problem
		// sizes (paper: ≈10 M particles usable; measurements end at 33 M).
		if mio <= 33 {
			fs2 := simfs.New(simfs.Jugene())
			bw, br := fig6Baseline(fs2, ntasks, perTask)
			row = append(row, secsf(bw), secsf(br))
		} else {
			row = append(row, "-", "-")
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: 1–2 orders of magnitude improvement at 33 Mio particles; SIONlib pays a 1-FS-block/task floor (≈2 GB at 1000 tasks), so its advantage appears only beyond small problem sizes",
		"baseline rows stop at 33 Mio: the original implementation could not run larger problems (paper §5.1)")
	return res
}

// fig6Baseline models the original MP2C checkpoint path: for every
// particle field, the designated I/O task gathers each task's share and
// appends it to a single file (strictly alternating gather and write, as
// the paper describes), then the mirror-image read+scatter.
func fig6Baseline(fs *simfs.FS, ntasks int, perTask int64) (write, read float64) {
	fieldBytes := perTask / fig6Fields
	if fieldBytes < 1 {
		fieldBytes = 1
	}
	var tw, tr float64
	simRun(fs, ntasks, func(c *mpi.Comm, v fsio.FileSystem) {
		if c.Rank() != 0 {
			// Workers only feed the designated I/O task; their cost is
			// subsumed in the gather rate. They wait for completion.
			c.Barrier()
			c.Barrier()
			return
		}
		p := c.Proc()
		fh, err := v.Create("restart-seq.bin")
		check(err == nil, "fig6: baseline create: %v", err)
		t0 := p.Now()
		var off int64
		for field := 0; field < fig6Fields; field++ {
			for task := 0; task < ntasks; task++ {
				// Gather this task's field slice, then write it.
				p.Advance(fig6RoundLat + float64(fieldBytes)/fig6GatherBW)
				err := fh.WriteZeroAt(fieldBytes, off)
				check(err == nil, "fig6: baseline write: %v", err)
				off += fieldBytes
			}
		}
		tw = p.Now() - t0
		err = fh.Close()
		check(err == nil, "fig6: baseline write close: %v", err)
		c.Barrier()

		rh, err := v.Open("restart-seq.bin")
		check(err == nil, "fig6: baseline open: %v", err)
		t1 := p.Now()
		off = 0
		for field := 0; field < fig6Fields; field++ {
			for task := 0; task < ntasks; task++ {
				_, err := rh.ReadDiscardAt(fieldBytes, off)
				check(err == nil, "fig6: baseline read: %v", err)
				p.Advance(fig6RoundLat + float64(fieldBytes)/fig6GatherBW)
				off += fieldBytes
			}
		}
		tr = p.Now() - t1
		err = rh.Close()
		check(err == nil, "fig6: baseline read close: %v", err)
		c.Barrier()
	})
	return tw, tr
}

func secsf(t float64) string {
	if t < 10 {
		return fmt.Sprintf("%.2f", t)
	}
	return fmt.Sprintf("%.1f", t)
}
