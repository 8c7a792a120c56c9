package sion

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fsio"
	"repro/internal/vtime"
)

// Collective write, modelled on SIONlib's collective extension
// (sion_coll_fwrite): when chunks are small, having every task issue its
// own file requests wastes the file system's request path. Groups of
// consecutive local tasks designate their first member as a collector;
// only the collectors open and touch the physical file, cutting the number
// of clients by the group factor while the multifile layout stays
// identical — a multifile written collectively is byte-identical to one
// written directly. The read-side counterpart is the mapped core's span
// fetch (mapped.go, collectiveFetch), which ParOpen's read mode shares.
//
// Two modes build on the same frame protocol:
//
//   - Synchronous collective write (Options.CollectorGroup, the original
//     mode): members buffer everything and ship one final frame at Close;
//     the collector issues one large write per member region.
//   - Asynchronous collective write (Options.AsyncCollective): members
//     stage data in double buffers of one flush unit (asyncFlushUnit) and
//     ship each full buffer immediately (sends are eager, so members never
//     stall). The collector is the only receiver of member frames: it
//     takes those that have arrived at its own Write and Flush and the
//     rest at Close, and hands every frame, its own included, to a
//     flusher that writes in the background — a goroutine in real mode, a
//     vtime worker in simulated mode — overlapping computation with file
//     I/O. Errors are deferred to Flush/Close.
//
// Group sizing: a fixed CollectorGroup > 1, or CollectorAuto (-1) which
// targets collector regions of autoCollectTargetBlocks FS blocks (see
// autoCollectorGroup in options.go). The resolved size is computed once at
// each physical file's master and scattered with the chunk geometry, so it
// is consistent across the group even with per-task chunk sizes.

// Message tags for the collective exchanges.
const (
	tagCollData = 4202 // data frames (member → collector)
	tagCollDone = 4203 // completion status (collector → member)
)

// asyncQueueDepth bounds the real-mode flusher's queue: the collector's
// Write, Flush and Close backpressure once this many frames are waiting.
const asyncQueueDepth = 4

// asyncFlushCap bounds the async flush unit, and with it the memory in
// flight per member.
const asyncFlushCap = 4 << 20

// asyncFlushUnit is the async staging-buffer (flush-unit) size: half a
// chunk capacity rounded up to whole FS blocks, capped at asyncFlushCap
// rounded likewise. Two flushes per chunk spread the collectors' traffic
// across the compute phase instead of queueing it after the last record
// (tab3's async-collective row); whole blocks keep every flush aligned,
// and are whole parts on backends that report their part size as the FS
// block.
func asyncFlushUnit(capacity, fsblk int64) int64 {
	q := (capacity + 1) / 2
	if q > asyncFlushCap {
		q = asyncFlushCap
	}
	return alignUp(q, fsblk)
}

// collFrame is one unit of member data in flight to its collector. Frames
// carry the member's chunk arithmetic so the collector needs no per-member
// state: logical bytes [logicalOff, logicalOff+len(data)) of the member's
// stream land in its chunk series (capacity bytes per block, block b's
// chunk data starting at chunk0 + b*stride).
type collFrame struct {
	logicalOff int64
	final      bool
	member     int64 // local rank of the member that produced the data
	chunk0     int64
	capacity   int64
	stride     int64
	data       []byte
}

const collFrameHdr = 7 * 8

func (fr *collFrame) encode() []byte {
	fin := int64(0)
	if fr.final {
		fin = 1
	}
	buf := encodeInt64s([]int64{fr.logicalOff, fin, fr.member, fr.chunk0, fr.capacity, fr.stride, int64(len(fr.data))})
	return append(buf, fr.data...)
}

func decodeCollFrame(raw []byte) (collFrame, error) {
	if len(raw) < collFrameHdr {
		return collFrame{}, fmt.Errorf("sion: collective frame truncated (%d bytes)", len(raw))
	}
	v := decodeInt64s(raw[:collFrameHdr])
	if int64(len(raw)-collFrameHdr) != v[6] {
		return collFrame{}, fmt.Errorf("sion: collective frame announced %d bytes, carries %d", v[6], len(raw)-collFrameHdr)
	}
	return collFrame{
		logicalOff: v[0], final: v[1] != 0, member: v[2],
		chunk0: v[3], capacity: v[4], stride: v[5],
		data: raw[collFrameHdr:],
	}, nil
}

// collState holds a task's collective-write state.
type collState struct {
	group   int   // tasks per collector
	lead    int   // local rank of my group's collector
	members []int // collector only: local ranks of the other group members
	async   bool
	quantum int64 // async staging-buffer size

	// Member-side staging (every participant, the collector included).
	buf     []byte
	spare   []byte // double-buffer partner (members reuse; see collEmit)
	shipped int64  // logical bytes already emitted as frames

	// Collector side.
	flush  flusher      // applies every frame, the collector's own and its members'
	finals map[int]bool // members whose final frame has been taken
	mu     sync.Mutex   // guards ferr and applied (flusher vs. collector)
	ferr   error        // first deferred write error

	// Watermark progress (Options.Watermarks, collector only): per member
	// local rank, logical bytes fully applied to the physical file and the
	// member's chunk capacity (from its frames). Updated by the flusher
	// (possibly on its own goroutine), snapshotted under mu by
	// collCommitWatermarks. wmTotals tracks the last committed totals so
	// unchanged members skip cell writes; it is touched only by the
	// collector's own Flush/Close path.
	applied  map[int]collProgress
	wmTotals map[int]int64
}

// collProgress is one member's applied-bytes high-water mark.
type collProgress struct {
	bytes    int64
	capacity int64
}

// flusher applies a collector's frames to the physical file. put takes
// ownership of fr.data (recycled once applied); finish returns once every
// frame put is applied, and nothing is put after it. Write errors are
// noted for the deferred status (collNote), never returned.
type flusher interface {
	put(fr collFrame)
	finish()
}

// newFlusher picks the collector's flusher: inline in sync mode, a
// goroutine in real mode, a vtime worker in simulated mode, whose file
// system ParOpen has checked can host one (errNoWorker).
func (f *File) newFlusher(async bool) flusher {
	if !async {
		return inlineFlusher{f}
	}
	if f.lcomm.Proc() == nil {
		return newGoFlusher(f)
	}
	return newVtimeFlusher(f, f.fsys.(workerSpawner))
}

// inlineFlusher applies each frame as it is put, on the collector.
type inlineFlusher struct{ f *File }

func (x inlineFlusher) put(fr collFrame) { x.f.collApply(x.f.fh, fr) }
func (inlineFlusher) finish()            {}

// goFlusher applies frames on a goroutine of its own (real mode); its
// channel's depth bounds the frames waiting.
type goFlusher struct {
	frames chan collFrame
	done   chan struct{}
}

func newGoFlusher(f *File) *goFlusher {
	g := &goFlusher{make(chan collFrame, asyncQueueDepth), make(chan struct{})}
	go func() {
		defer close(g.done)
		for fr := range g.frames {
			f.collApply(f.fh, fr)
		}
	}()
	return g
}

func (g *goFlusher) put(fr collFrame) { g.frames <- fr }
func (g *goFlusher) finish()          { close(g.frames); <-g.done }

// workerSpawner is implemented by file systems (simfs views, and simfs's
// decorators over one) that can host a background worker with its own
// cost-accounting context.
type workerSpawner interface {
	SpawnWorker(func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc
}

// errNoWorker fails a simulated AsyncCollective ParOpen on a collector
// whose file system cannot host the flusher's worker: a decorator that
// does not forward SpawnWorker (resil.Wrap, fsio.Instrument). Falling back
// to the inline flusher would measure the synchronous collector under the
// async one's name.
var errNoWorker = errors.New("AsyncCollective under simulation needs a file system that can host the flusher's vtime worker (SpawnWorker)")

// vtimeFlusher is goFlusher's simulated-mode analog: a vtime worker with
// its own clock and its own handle on the physical file, so collector
// file I/O overlaps the collector's computation in virtual time. Frames
// are stamped with the hand-off time (the worker cannot write data before
// it existed). Its fields are exchanged under the vtime engine's one-
// process-at-a-time execution.
type vtimeFlusher struct {
	owner, proc *vtime.Proc // the collector and the worker
	frames      []collFrame
	at          []float64 // hand-off time of each frame
	closed      bool      // finish was called
	waiting     bool      // worker is blocked on an empty queue
	closeWait   bool      // owner is blocked in finish
	finished    bool
}

func newVtimeFlusher(f *File, ws workerSpawner) *vtimeFlusher {
	v := &vtimeFlusher{owner: f.lcomm.Proc()}
	v.proc = ws.SpawnWorker(func(wfs fsio.FileSystem, p *vtime.Proc) { v.run(f, wfs, p) })
	return v
}

func (v *vtimeFlusher) run(f *File, wfs fsio.FileSystem, p *vtime.Proc) {
	fh, err := wfs.OpenRW(fileName(f.name, f.filenum))
	if err != nil {
		f.collNote(fmt.Errorf("sion: %s: async flusher open: %w", f.name, err))
	}
	for len(v.frames) > 0 || !v.closed {
		if len(v.frames) == 0 {
			v.waiting = true
			p.Block()
			continue
		}
		fr, at := v.frames[0], v.at[0]
		v.frames, v.at = v.frames[1:], v.at[1:]
		if at > p.Now() {
			p.AdvanceTo(at)
		}
		if fh != nil {
			f.collApply(fh, fr)
		}
	}
	if fh != nil {
		f.collNote(fh.Close())
	}
	v.finished = true
	if v.closeWait {
		p.WakeAt(v.owner, p.Now())
	}
}

// wake resumes a worker blocked on an empty queue.
func (v *vtimeFlusher) wake() {
	if v.waiting {
		v.waiting = false
		v.owner.WakeAt(v.proc, v.owner.Now())
	}
}

func (v *vtimeFlusher) put(fr collFrame) {
	v.frames = append(v.frames, fr)
	v.at = append(v.at, v.owner.Now())
	v.wake()
}

func (v *vtimeFlusher) finish() {
	v.closed = true
	v.wake()
	if !v.finished {
		v.closeWait = true
		v.owner.Block()
	}
}

// collectiveEnabled reports whether this write handle buffers for collection.
func (f *File) collectiveEnabled() bool { return f.coll != nil }

// initCollective arms collective write mode on a freshly opened handle.
// group is the resolved size scattered by the file master.
func (f *File) initCollective(group int, async bool) {
	if group <= 1 || f.lcomm == nil {
		return
	}
	lrank := f.lcomm.Rank()
	lead := lrank - lrank%group
	c := &collState{group: group, lead: lead, async: async}
	f.coll = c
	f.collLead = lrank == lead
	if async {
		c.quantum = asyncFlushUnit(f.geo.capacity(geoIndex), f.geo.fsblk)
	}
	if !f.collLead {
		return
	}
	end := lead + group
	if end > f.lcomm.Size() {
		end = f.lcomm.Size()
	}
	for m := lead + 1; m < end; m++ {
		c.members = append(c.members, m)
	}
	c.finals = make(map[int]bool, len(c.members))
	c.applied = make(map[int]collProgress, len(c.members)+1)
	c.wmTotals = make(map[int]int64, len(c.members)+1)
	c.flush = f.newFlusher(async)
}

// collWrite buffers p (collective-mode Write path). In async mode, full
// staging buffers are emitted as frames immediately, and a collector
// takes the member frames that have arrived.
func (f *File) collWrite(p []byte) (int, error) {
	c := f.coll
	total := len(p)
	if !c.async {
		c.buf = append(c.buf, p...)
		return total, nil
	}
	for len(p) > 0 {
		room := c.quantum - int64(len(c.buf))
		w := int64(len(p))
		if w > room {
			w = room
		}
		c.buf = append(c.buf, p[:w]...)
		p = p[w:]
		if int64(len(c.buf)) == c.quantum {
			f.collEmit(false)
		}
	}
	if f.collLead {
		f.collDrain()
	}
	return total, nil
}

// collEmit ships the current staging buffer as one frame. Members hand the
// buffer to mpi.Send (which copies), so the two staging buffers can be
// swapped and reused — the double-buffering that lets a member keep
// writing while its previous buffer is in flight. The collector hands its
// buffer to the flusher (which may write from it concurrently) and starts
// a fresh one.
func (f *File) collEmit(final bool) {
	c := f.coll
	fr := collFrame{
		logicalOff: c.shipped,
		final:      final,
		member:     int64(f.local),
		chunk0:     f.geo.dataOff(geoIndex, 0),
		capacity:   f.geo.capacity(geoIndex),
		stride:     f.geo.stride,
		data:       c.buf,
	}
	c.shipped += int64(len(c.buf))
	if f.collLead {
		c.flush.put(fr)
		c.buf = stageBufs.Get(c.quantum)[:0]
		return
	}
	f.lcomm.Send(c.lead, tagCollData, fr.encode())
	// Swap the staging buffers (on the first swap c.buf becomes nil,
	// which append simply materializes on the next Write).
	c.buf, c.spare = c.spare[:0], c.buf[:0]
}

// collApply writes one frame through the given handle, records the
// member's applied high-water mark (the basis of the collector's watermark
// commits) and recycles the frame's data. A write error is noted for the
// deferred status.
func (f *File) collApply(fh fsio.File, fr collFrame) {
	err := applyCollFrame(fh, f.name, fr)
	end := fr.logicalOff + int64(len(fr.data))
	stageBufs.Put(fr.data)
	if err != nil {
		f.collNote(err)
		return
	}
	c := f.coll
	c.mu.Lock()
	pr := c.applied[int(fr.member)]
	if end > pr.bytes {
		pr.bytes = end
	}
	pr.capacity = fr.capacity
	c.applied[int(fr.member)] = pr
	c.mu.Unlock()
}

// applyCollFrame writes one frame into its member's chunk series through
// the given handle (the collector's own, or the vtime flusher's).
func applyCollFrame(fh fsio.File, name string, fr collFrame) error {
	if fr.capacity <= 0 {
		return fmt.Errorf("sion: %s: collective member chunk capacity %d", name, fr.capacity)
	}
	data := fr.data
	block := fr.logicalOff / fr.capacity
	pos := fr.logicalOff % fr.capacity
	for len(data) > 0 {
		w := int64(len(data))
		if w > fr.capacity-pos {
			w = fr.capacity - pos
		}
		off := fr.chunk0 + block*fr.stride + pos
		if _, err := fh.WriteAt(data[:w], off); err != nil {
			return fmt.Errorf("sion: %s: collective write: %w", name, err)
		}
		data = data[w:]
		pos += w
		if pos == fr.capacity {
			block++
			pos = 0
		}
	}
	return nil
}

// collNote records a deferred flusher error (first one wins).
func (f *File) collNote(err error) {
	if err == nil {
		return
	}
	c := f.coll
	c.mu.Lock()
	if c.ferr == nil {
		c.ferr = err
	}
	c.mu.Unlock()
}

func (f *File) collErr() error {
	c := f.coll
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ferr
}

// collTake decodes one raw member frame and hands it to the flusher.
func (f *File) collTake(member int, raw []byte) {
	fr, err := decodeCollFrame(raw)
	if err != nil {
		f.collNote(err)
		f.coll.finals[member] = true // cannot resync with this member
		return
	}
	if fr.final {
		f.coll.finals[member] = true
	}
	f.coll.flush.put(fr)
}

// collDrain takes every member frame that has already arrived (in
// simulated mode: whose virtual arrival time has passed) without blocking.
func (f *File) collDrain() {
	c := f.coll
	for _, m := range c.members {
		for !c.finals[m] {
			raw, ok := f.lcomm.TryRecv(m, tagCollData)
			if !ok {
				break
			}
			f.collTake(m, raw)
		}
	}
}

// collFlush implements Flush for collective write handles: async members
// ship their partial staging buffer; async collectors additionally take
// the member frames that have arrived and surface any deferred error seen
// so far. Synchronous collective mode moves data only at Close by design.
func (f *File) collFlush() error {
	c := f.coll
	if !c.async {
		return nil
	}
	if len(c.buf) > 0 {
		f.collEmit(false)
	}
	if !f.collLead {
		return nil
	}
	f.collDrain()
	return f.collErr()
}

// collClose finishes the collective write exchange. Members ship their
// final frame and wait for the collector's status; the collector emits
// its own final frame, drains every member to its final frame, waits for
// the flusher to apply everything, and acknowledges — a write error fails
// the whole group, and the members are drained regardless so nobody
// deadlocks. All participants derive their per-block byte counts locally
// (the chunk layout is a pure function of the byte total), exactly
// matching what a direct writer would have recorded.
func (f *File) collClose() error {
	c := f.coll
	f.collEmit(true)
	f.collFinishBytes(c.shipped)
	if !f.collLead {
		status := decodeInt64s(f.lcomm.Recv(c.lead, tagCollDone))[0]
		c.releaseBufs()
		if status != 0 {
			return fmt.Errorf("sion: %s: collective write failed at collector %d (deferred write error)", f.name, c.lead)
		}
		return nil
	}
	for _, m := range c.members {
		for !c.finals[m] {
			f.collTake(m, f.lcomm.Recv(m, tagCollData))
		}
	}
	c.flush.finish()
	err := f.collErr()
	status := []int64{0}
	if err != nil {
		status[0] = 1
	}
	for _, m := range c.members {
		f.lcomm.Send(m, tagCollDone, encodeInt64s(status))
	}
	c.releaseBufs()
	return err
}

// collCommitWatermarks publishes watermarks for the member data a
// collector has applied so far (Options.Watermarks). The collector is the
// only rank of its group that touches the physical file, so it is also the
// only one that can vouch for durability: it snapshots the applied
// high-water marks, syncs the data file, writes the commit cells, and
// syncs the sidecar — the same ordering a direct writer observes. With
// final=true (Close) every committed block is sealed. Members without wm
// state (non-collectors) and non-watermarked handles are a no-op.
func (f *File) collCommitWatermarks(final bool) error {
	if f.wm == nil || !f.collLead {
		return nil
	}
	c := f.coll
	c.mu.Lock()
	snap := make(map[int]collProgress, len(c.applied))
	for m, pr := range c.applied {
		snap[m] = pr
	}
	c.mu.Unlock()
	if final {
		// Members that never shipped payload bytes still close with one
		// empty sealed block (collFinishBytes semantics).
		for _, m := range append([]int{f.local}, c.members...) {
			if _, ok := snap[m]; !ok {
				snap[m] = collProgress{bytes: 0, capacity: f.geo.capacity(geoIndex)}
			}
		}
	}
	wrote := false
	synced := false
	for m, pr := range snap {
		if !final && pr.bytes == c.wmTotals[m] {
			continue
		}
		if !synced {
			// One data sync covers every cell of this commit round.
			if err := f.fh.Sync(); err != nil {
				return err
			}
			synced = true
		}
		w, err := f.wmCommitTotal(m, pr.bytes, pr.capacity, final)
		if err != nil {
			return err
		}
		c.wmTotals[m] = pr.bytes
		wrote = wrote || w
	}
	if !wrote {
		return nil
	}
	return f.wm.sync()
}

// wmCommitTotal derives a member's per-block commit cells from its applied
// logical byte total, mirroring collFinishBytes' chunk arithmetic: full
// blocks of `capacity` bytes, then the remainder. Only blocks at or past
// the previously committed total are rewritten. A block is sealed when it
// is full (no more bytes can enter it) or when the commit is final.
func (f *File) wmCommitTotal(member int, total, capacity int64, final bool) (bool, error) {
	if capacity <= 0 {
		return false, nil
	}
	prev := f.coll.wmTotals[member]
	start := int64(0)
	if prev > 0 {
		start = (prev - 1) / capacity // the previously open (or just-filled) block
	}
	wrote := false
	for b := start; ; b++ {
		bytes := total - b*capacity
		if bytes > capacity {
			bytes = capacity
		}
		if bytes < 0 {
			bytes = 0
		}
		if bytes == 0 && b > 0 && !(final && b == start) {
			break
		}
		sealed := bytes == capacity || final
		if err := f.wm.commit(member, int(b), bytes, sealed); err != nil {
			return wrote, err
		}
		wrote = true
		if bytes < capacity {
			break
		}
	}
	return wrote, nil
}

// releaseBufs returns the staging double-buffers to the shared pool once
// no frame can reference them anymore (after the flusher has finished).
func (c *collState) releaseBufs() {
	stageBufs.Put(c.buf)
	stageBufs.Put(c.spare)
	c.buf, c.spare = nil, nil
}

// collFinishBytes fills the write-side cursor state from the task's total
// logical byte count, reproducing the per-block counts of a direct writer:
// full chunks of `capacity` bytes, then the remainder (a task that wrote
// nothing holds a single empty block, and an exact multiple of the
// capacity leaves no trailing empty block).
func (f *File) collFinishBytes(total int64) {
	capacity := f.geo.capacity(geoIndex)
	bb := []int64{}
	for total > capacity {
		bb = append(bb, capacity)
		total -= capacity
	}
	bb = append(bb, total)
	f.blockBytes = bb
	f.curBlock = len(bb) - 1
	f.pos = bb[f.curBlock]
}

// encodeInt64s / decodeInt64s: little-endian int64 slice codec for the
// collective exchange payloads.
func encodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		le().PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(le().Uint64(b[8*i:]))
	}
	return out
}
