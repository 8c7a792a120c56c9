package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

// tally counts operations (library calls, requests, byte checks) and the
// ones that failed; it is the run's attempted/failed.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
	syncs             atomic.Int64 // see pageCacheFS
}

func (t *tally) ops(n int64) { t.attempted.Add(n) }

// fail counts one failed operation and reports the first few.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	if t.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
	}
}

// op counts one operation and its failure, if any.
func (t *tally) op(err error, what string) bool {
	t.attempted.Add(1)
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	return true
}

// job is the generated input of one run: every rank's logical stream and
// its record boundaries, plus the read-back buffers the read phases fill.
type job struct {
	sp      *spec
	payload [][]byte
	recs    [][]int64 // per rank, end offset of each record
	dst     [][]byte
}

func newJob(sp *spec, seed int64) *job {
	j := &job{sp: sp, payload: make([][]byte, sp.Tasks), recs: make([][]int64, sp.Tasks),
		dst: make([][]byte, sp.Tasks)}
	var wg sync.WaitGroup
	for g := 0; g < sp.Tasks; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.payload[g] = genPayload(sp, seed, g)
			j.recs[g] = genRecords(sp, seed, g)
			j.dst[g] = make([]byte, sp.BytesPerTask)
		}()
	}
	wg.Wait()
	return j
}

// checkReadBack compares what a read phase delivered with the generator's
// streams, then poisons the buffers for the next read.
func (j *job) checkReadBack(t *tally, what string) {
	for g := range j.dst {
		t.ops(1)
		if !bytes.Equal(j.dst[g], j.payload[g]) {
			t.fail("%s: rank %d read-back differs from the generated stream", what, g)
		}
		clear(j.dst[g])
	}
}

// ckpt runs the checkpoint phases of one workload in dir.
type ckpt struct {
	job     *job
	dir     string
	os      *pageCacheFS
	blk     int64
	extents [][]sion.BlockExtent // per rank, the chunk extents of a P1 dump
	tr      *tracer              // nil in an untraced run
	tally   *tally
}

// Multifile names of the phases.
const (
	nameP1    = "p1.sion"
	nameP2    = "p2.sion"
	nameExtra = "extra.sion"
)

// rankCtx is what a phase body sees of its rank: the file-system binding
// to hand to the library, the clock marks the metrics are made of, and the
// span recorder (nil when untraced).
type rankCtx struct {
	fsys             fsio.FileSystem
	rec              *recorder
	in, opened, out  time.Time
	calls, attempted int64 // Write/Read calls; library calls made
}

func (p *rankCtx) begin(name string) {
	if p.rec != nil {
		p.rec.begin("core", name)
	}
}

func (p *rankCtx) end() {
	if p.rec != nil {
		p.rec.end()
	}
}

// phaseOut is one timed phase: intervals run from the first rank in to the
// last rank out.
type phaseOut struct {
	wall, open time.Duration
	calls      int64       // File.Write or File.Read calls, all ranks
	fs         *fsCounters // what the phase asked of fsio (traced only)
}

func (o phaseOut) MBps(bytes int64) float64 { return float64(bytes) / o.wall.Seconds() / 1e6 }

// runPhase runs body on n mpi ranks. Traced, every rank gets its own
// timedFS bound to its own span recorder; untraced, the plain backend.
//
// Every body holds its rank at a Barrier between the open and the first
// Write or Read. With more ranks than cores a rank that has opened would
// otherwise start moving data while others are still waiting for a core to
// finish their open on, and "first rank in to last rank out" of the open
// would measure the data phase's queue, not the open.
func (k *ckpt) runPhase(name string, iter int, traced bool, n int, body func(c *mpi.Comm, p *rankCtx)) phaseOut {
	ctxs := make([]rankCtx, n)
	var out phaseOut
	var root, bg *recorder
	var rootID int32
	if traced {
		out.fs = &fsCounters{}
		root = k.tr.recorder(iter, -1, 0, 1)
		root.begin("bench", name)
		rootID = root.top()
		bg = k.tr.background(iter, rootID, 1024)
	}
	mpi.Run(n, func(c *mpi.Comm) {
		p := &ctxs[c.Rank()]
		p.fsys = k.os
		if traced {
			p.rec = k.tr.recorder(iter, c.Rank(), rootID, 256)
			fs := &timedFS{inner: k.os, c: out.fs, blk: k.blk, rec: p.rec}
			fs.bg.Store(bg)
			p.fsys = fs
		}
		c.Barrier()
		if traced {
			p.rec.begin("bench", name+".task")
			defer p.rec.end()
		}
		p.in = time.Now()
		body(c, p)
		p.out = time.Now()
	})
	if traced {
		root.end()
	}
	in, opened, left := make([]time.Time, n), make([]time.Time, n), make([]time.Time, n)
	for i := range ctxs {
		p := &ctxs[i]
		in[i], opened[i], left[i] = p.in, p.opened, p.out
		out.calls += p.calls
		k.tally.ops(p.attempted)
	}
	out.wall, out.open = firstToLast(in, left), firstToLast(in, opened)
	return out
}

// firstToLast is the interval from the earliest start to the latest end.
func firstToLast(starts, ends []time.Time) time.Duration {
	first, last := starts[0], ends[0]
	for i := range starts {
		if starts[i].Before(first) {
			first = starts[i]
		}
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	return last.Sub(first)
}

// writeBody is one rank of a dump: ParOpen, one Write per record, Close.
func (k *ckpt) writeBody(name string, opts sion.Options) func(*mpi.Comm, *rankCtx) {
	return func(c *mpi.Comm, p *rankCtx) {
		g := c.Rank()
		p.begin("ParOpen")
		f, err := sion.ParOpen(c, p.fsys, name, sion.WriteMode, &opts)
		p.end()
		p.opened = time.Now()
		c.Barrier() // see runPhase
		p.attempted++
		if err != nil {
			k.tally.fail("%s: ParOpen write, rank %d: %v", name, g, err)
			return
		}
		p.begin("Write")
		data, pos := k.job.payload[g], int64(0)
		for _, end := range k.job.recs[g] {
			if _, err := f.Write(data[pos:end]); err != nil {
				k.tally.fail("%s: Write, rank %d at %d: %v", name, g, pos, err)
			}
			pos = end
		}
		p.end()
		p.calls = int64(len(k.job.recs[g]))
		p.attempted += p.calls + 1
		p.begin("Close")
		err = f.Close()
		p.end()
		if err != nil {
			k.tally.fail("%s: Close, rank %d: %v", name, g, err)
		}
	}
}

// readRank reads rank g's stream back record by record.
func (k *ckpt) readRank(p *rankCtx, f *sion.File, name string, g int) {
	dst, pos := k.job.dst[g], int64(0)
	for _, end := range k.job.recs[g] {
		if _, err := io.ReadFull(f, dst[pos:end]); err != nil {
			k.tally.fail("%s: Read, rank %d at %d: %v", name, g, pos, err)
		}
		pos = end
	}
	n := int64(len(k.job.recs[g]))
	p.calls += n
	p.attempted += n
}

// readBody is one rank of the same-N read-back with read-ahead.
func (k *ckpt) readBody(name string) func(*mpi.Comm, *rankCtx) {
	return func(c *mpi.Comm, p *rankCtx) {
		g := c.Rank()
		p.begin("ParOpen")
		f, err := sion.ParOpen(c, p.fsys, name, sion.ReadMode, &sion.Options{BufferSize: sion.BufferAuto})
		p.end()
		p.opened = time.Now()
		c.Barrier() // see runPhase
		p.attempted += 2
		if err != nil {
			k.tally.fail("%s: ParOpen read, rank %d: %v", name, g, err)
			return
		}
		p.begin("Read")
		k.readRank(p, f, name, g)
		p.end()
		p.begin("Close")
		err = f.Close()
		p.end()
		if err != nil {
			k.tally.fail("%s: Close, rank %d: %v", name, g, err)
		}
	}
}

// mappedBody is one of the M readers of the N→M reopen, draining the
// writer ranks it owns.
func (k *ckpt) mappedBody(name string) func(*mpi.Comm, *rankCtx) {
	return func(c *mpi.Comm, p *rankCtx) {
		p.begin("ParOpenMapped")
		mf, err := sion.ParOpenMapped(c, p.fsys, name, sion.ReadMode, nil, &sion.Options{BufferSize: sion.BufferAuto})
		p.end()
		p.opened = time.Now()
		c.Barrier() // see runPhase
		p.attempted += 2
		if err != nil {
			k.tally.fail("%s: ParOpenMapped, reader %d: %v", name, c.Rank(), err)
			return
		}
		p.begin("Read")
		for _, g := range mf.OwnedRanks() {
			h, err := mf.Rank(g)
			if err != nil {
				k.tally.fail("%s: mapped Rank(%d): %v", name, g, err)
				continue
			}
			k.readRank(p, h, name, g)
		}
		p.end()
		p.begin("Close")
		err = mf.Close()
		p.end()
		if err != nil {
			k.tally.fail("%s: mapped Close, reader %d: %v", name, c.Rank(), err)
		}
	}
}

// The four timed phases and the options they pin. P1 and P2 share every
// option but the collective ones on purpose: a staging or framing gain
// that taxes the other path shows up as a regression there.
func (k *ckpt) optsP1() sion.Options {
	return sion.Options{ChunkSize: k.job.sp.ChunkSize, BufferSize: sion.BufferAuto}
}

func (k *ckpt) optsP2() sion.Options {
	o := k.optsP1()
	o.CollectorGroup, o.AsyncCollective = sion.CollectorAuto, true
	return o
}

// phaseOrders are the orders in which an iteration may run P1..P4 (P1
// writes what P3 and P4 read); iterations rotate through them so no phase
// always inherits the same cache and allocator state.
var phaseOrders = [][4]int{{0, 1, 2, 3}, {1, 0, 3, 2}, {0, 2, 1, 3}, {0, 3, 2, 1}}

// iterOut is one iteration: the four phases, the stored size of P1, and
// the host-speed reference taken right after them.
type iterOut struct {
	p      [4]phaseOut
	stored int64
	ref    rawOut
}

// iteration writes the dump twice (P1 direct, P2 collective), reads P1
// back twice (P3 same-N, P4 mapped), checks all of it, removes it, and
// then moves the same bytes with the standard library alone, so that each
// phase can be stated against what the host could do at that moment.
func (k *ckpt) iteration(iter int, traced bool) iterOut {
	sp := k.job.sp
	var out iterOut
	for _, ph := range phaseOrders[iter%len(phaseOrders)] {
		switch ph {
		case 0:
			out.p[0] = k.runPhase("P1", iter, traced, sp.Tasks, k.writeBody(nameP1, k.optsP1()))
		case 1:
			out.p[1] = k.runPhase("P2", iter, traced, sp.Tasks, k.writeBody(nameP2, k.optsP2()))
		case 2:
			out.p[2] = k.runPhase("P3", iter, traced, sp.Tasks, k.readBody(nameP1))
			k.job.checkReadBack(k.tally, "P3")
		case 3:
			out.p[3] = k.runPhase("P4", iter, traced, sp.Readers, k.mappedBody(nameP1))
			k.job.checkReadBack(k.tally, "P4")
		}
	}
	// The repo's promise: a collective dump is byte-identical to a direct one.
	k.tally.ops(1)
	if err := sameFile(filepath.Join(k.dir, nameP1), filepath.Join(k.dir, nameP2)); err != nil {
		k.tally.fail("P1 vs P2: %v", err)
	}
	out.stored = k.storedBytes(nameP1)
	k.remove(nameP1, nameP2)
	out.ref = k.rawRungs()
	return out
}

// extraWrite is an extra rung of the traced run: the same dump under other
// options, removed at once.
func (k *ckpt) extraWrite(iter int, opts sion.Options) phaseOut {
	out := k.runPhase("extra", iter, false, k.job.sp.Tasks, k.writeBody(nameExtra, opts))
	k.remove(nameExtra)
	return out
}

func (k *ckpt) storedBytes(name string) int64 {
	var total int64
	for _, phys := range sion.PhysicalNames(name, 1) {
		fi, err := k.os.Stat(phys)
		if err != nil {
			k.tally.fail("stat %s: %v", phys, err)
			continue
		}
		total += fi.Size
	}
	return total
}

func (k *ckpt) remove(names ...string) {
	for _, n := range names {
		if err := k.os.Remove(n); err != nil {
			k.tally.fail("remove %s: %v", n, err)
		}
	}
}

// sameFile reports whether two files hold the same bytes.
func sameFile(a, b string) error {
	fa, err := os.Open(a)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return err
	}
	defer fb.Close()
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for off := int64(0); ; {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return fmt.Errorf("%s and %s differ in [%d, %d)", filepath.Base(a), filepath.Base(b), off, off+int64(max(na, nb)))
		}
		if ea != nil || eb != nil {
			if (ea == io.EOF || ea == io.ErrUnexpectedEOF) && (eb == io.EOF || eb == io.ErrUnexpectedEOF) {
				return nil
			}
			return fmt.Errorf("comparing %s and %s: %v / %v", filepath.Base(a), filepath.Base(b), ea, eb)
		}
		off += int64(na)
	}
}

// parallel runs body on n goroutines released together and returns the
// time from the first one in to the last one out. The reference uses it,
// not mpi.Run (see rawRungs).
func parallel(n int, body func(g int)) time.Duration {
	in, out := make([]time.Time, n), make([]time.Time, n)
	gate := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := 0; g < n; g++ {
		g := g
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-gate
			in[g] = time.Now()
			body(g)
			out[g] = time.Now()
		}()
	}
	ready.Wait()
	close(gate)
	done.Wait()
	return firstToLast(in, out)
}

// rawOut is one pass over the raw rungs.
type rawOut struct {
	sharedWrite time.Duration // create + N x (open, pwrite the extents, close)
	sharedRead  time.Duration // N x (open, pread the extents, close)
	localCreate time.Duration // N creates
	localWrite  time.Duration // the creates + N x (write the stream, close)
}

// rawRungs is the host-speed reference the checkpoint ratios are taken
// against: the dump's bytes moved from N goroutines with the standard
// library alone, into one shared file at exactly the chunk extents core
// laid out (one pwrite per extent, the best coalescing core could reach),
// back out of it, and into N task-local files (the paper's baseline). It
// must stay free of this repository's code (fsio and mpi included), or a
// change to the program would move both sides of a ratio.
func (k *ckpt) rawRungs() rawOut {
	sp := k.job.sp
	var out rawOut
	shared := filepath.Join(k.dir, "raw.shared")
	local := func(g int) string { return filepath.Join(k.dir, fmt.Sprintf("raw.local.%06d", g)) }
	perRank := func(g int, f *os.File, write bool) {
		buf, pos := k.job.payload[g], int64(0)
		if !write {
			buf = k.job.dst[g]
		}
		for _, e := range k.extents[g] {
			var err error
			if write {
				_, err = f.WriteAt(buf[pos:pos+e.Bytes], e.Off)
			} else {
				_, err = f.ReadAt(buf[pos:pos+e.Bytes], e.Off)
			}
			k.tally.op(err, "raw shared file")
			pos += e.Bytes
		}
	}

	start := time.Now()
	if f, err := os.Create(shared); k.tally.op(err, "raw create") {
		f.Close()
	}
	parallel(sp.Tasks, func(g int) {
		f, err := os.OpenFile(shared, os.O_RDWR, 0)
		if !k.tally.op(err, "raw open") {
			return
		}
		perRank(g, f, true)
		k.tally.op(f.Close(), "raw close")
	})
	out.sharedWrite = time.Since(start)

	out.sharedRead = parallel(sp.Tasks, func(g int) {
		f, err := os.Open(shared)
		if !k.tally.op(err, "raw open") {
			return
		}
		perRank(g, f, false)
		f.Close()
	})
	k.job.checkReadBack(k.tally, "raw shared read")
	k.tally.op(os.Remove(shared), "raw remove")

	files := make([]*os.File, sp.Tasks)
	out.localCreate = parallel(sp.Tasks, func(g int) {
		f, err := os.Create(local(g))
		if k.tally.op(err, "raw task-local create") {
			files[g] = f
		}
	})
	out.localWrite = out.localCreate + parallel(sp.Tasks, func(g int) {
		if files[g] == nil {
			return
		}
		data := k.job.payload[g]
		for pos := int64(0); pos < int64(len(data)); pos += sp.ChunkSize {
			_, err := files[g].WriteAt(data[pos:min(pos+sp.ChunkSize, int64(len(data)))], pos)
			k.tally.op(err, "raw task-local write")
		}
		k.tally.op(files[g].Close(), "raw close")
	})
	for g := 0; g < sp.Tasks; g++ {
		k.tally.op(os.Remove(local(g)), "raw remove")
	}
	return out
}

// mpiRounds times three collectives at n ranks: per round, first rank in
// to last rank out, in microseconds.
func mpiRounds(n, rounds int) (barrier, bcast, gatherv []float64) {
	payload := make([]byte, 64)
	ops := []func(c *mpi.Comm){
		func(c *mpi.Comm) { c.Barrier() },
		func(c *mpi.Comm) { c.Bcast(0, payload) },
		func(c *mpi.Comm) { c.Gatherv(0, payload) },
	}
	res := make([][]float64, len(ops))
	for i, op := range ops {
		in, out := make([][]time.Time, rounds), make([][]time.Time, rounds) // [round][rank]
		for j := range in {
			in[j], out[j] = make([]time.Time, n), make([]time.Time, n)
		}
		mpi.Run(n, func(c *mpi.Comm) {
			for j := 0; j < rounds; j++ {
				c.Barrier()
				in[j][c.Rank()] = time.Now()
				op(c)
				out[j][c.Rank()] = time.Now()
			}
		})
		res[i] = make([]float64, rounds)
		for j := range res[i] {
			res[i][j] = float64(firstToLast(in[j], out[j])) / 1e3
		}
	}
	return res[0], res[1], res[2]
}
