// Package simfs is a simulated parallel file system used to reproduce the
// paper's experiments at full scale (up to 64K tasks, terabytes of I/O) on a
// single machine.
//
// It implements the fsio interfaces over in-memory files and charges every
// operation virtual time on a discrete-event model (internal/vtime) with the
// contention mechanisms that drive the paper's results:
//
//   - directory-entry creation and inode loads serialize on a metadata
//     server (file-creation scalability, Fig. 3);
//   - file data is striped over a set of data servers chosen per file, so
//     aggregate bandwidth depends on how many servers a workload engages
//     (bandwidth vs number of physical files, Fig. 4);
//   - tasks share per-client (I/O-node) links, so bandwidth also grows with
//     task count until the servers saturate (Fig. 5);
//   - writes steal block-granular lock tokens when chunks of different
//     tasks share a file-system block (alignment, Table 1);
//   - a client read cache can push read bandwidth beyond the server
//     maximum (Fig. 5b).
//
// Real byte content is stored page-sparsely for ordinary WriteAt calls
// (metadata blocks, tests); the synthetic WriteZeroAt/ReadDiscardAt path is
// metered through the identical cost model without materializing data, so
// terabyte experiments fit in memory.
//
// simfs is single-threaded by design: in simulations the vtime engine runs
// one process at a time, and the serial utilities run outside any engine
// with a nil process (no time accounting). The one exception is what the
// fsio.File contract demands of every backend: ReadAt and ReadDiscardAt
// may be called from many goroutines at once, also on one handle, as long
// as nothing writes (internal/serve reads a file from every goroutine that
// misses); FS.readMu makes their bookkeeping safe.
package simfs

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"path"
	"slices"
	"sort"
	"sync"

	"repro/internal/fsio"
	"repro/internal/vtime"
)

const pageSize = 1 << 16

// FS is one simulated file system instance.
type FS struct {
	prof    *Profile
	dirs    map[string]*dir
	files   map[string]*file
	servers []*vtime.Server // data servers
	token   *vtime.Server   // lock/token manager
	clients map[int]*vtime.Server
	used    int64 // allocated bytes
	active  int   // files that have received writes (sets per-file token rate)

	// Crash-consistency modelling (the watermark durability experiments):
	// with volatile writes on, written content and size growth live in a
	// per-file overlay that only Sync merges into the durable state, and
	// reads see the durable state only (what another node would observe).
	volatile bool

	striping map[string]stripeCfg // per-directory override

	// readMu guards what concurrent reads share: the files' read-request
	// ledger and size (beginRead) and the page lookups of the copy-out. It
	// is never held across meter — a vtime process parks inside it.
	readMu sync.Mutex
}

type stripeCfg struct {
	count int
	size  int64
}

type dir struct {
	srv     *vtime.Server
	entries int
}

type extent struct{ off, end int64 }

type file struct {
	name        string
	size        int64
	pages       map[int64][]byte
	extents     []extent // sorted, merged allocated ranges
	stripeCount int      // configured stripe width (Lustre-style)
	stripeSize  int64
	token       *vtime.Server // per-file allocation/token pipe (see meter)
	inodeLoaded bool
	objInit     bool             // first-write allocation done
	chargedW    map[int64]bool   // FS blocks already paid for on the write path
	chargedR    map[int64]bool   // FS blocks already paid for on the read path
	blockOwner  map[int64]int    // FS block index -> last writer task
	written     int64            // total bytes ever written
	dirtySize   bool             // size attribute not yet propagated (see Close)
	vpages      map[int64][]byte // volatile-mode overlay pages (merged by Sync)
	vsize       int64            // volatile-mode size high-water (≤ durable after Crash)
	writerCli   map[int]bool     // client ids that wrote
	soleWriter  int              // task id, -1 = none yet, -2 = multiple
	removed     bool

	// Request accounting (see FileStats): how many open/read/write
	// requests the file ever received and from which tasks. The
	// collective-I/O experiments use these to prove the client-reduction
	// claim (only ⌈ntasks/group⌉ collectors touch a file).
	opens     int
	readReqs  int64
	writeReqs int64
	readerSet map[int]bool
	writerSet map[int]bool
}

// FileStats counts a file's lifetime request traffic per kind.
type FileStats struct {
	Opens         int   // Create + Open + OpenRW calls
	ReadRequests  int64 // ReadAt + ReadDiscardAt calls
	WriteRequests int64 // WriteAt + WriteZeroAt calls
	ReaderTasks   int   // distinct tasks that issued read requests
	WriterTasks   int   // distinct tasks that issued write requests
}

// Stats reports the request counters of the named file (false if it does
// not exist). Counters are cumulative over the file's lifetime; a
// truncating re-Create keeps them (the entry is the same), Remove drops
// them with the file.
func (fs *FS) Stats(name string) (FileStats, bool) {
	f, ok := fs.files[path.Clean(name)]
	if !ok {
		return FileStats{}, false
	}
	return FileStats{
		Opens:         f.opens,
		ReadRequests:  f.readReqs,
		WriteRequests: f.writeReqs,
		ReaderTasks:   len(f.readerSet),
		WriterTasks:   len(f.writerSet),
	}, true
}

// New creates a file system with the given profile.
func New(p *Profile) *FS {
	fs := &FS{
		prof:     p,
		dirs:     make(map[string]*dir),
		files:    make(map[string]*file),
		token:    vtime.NewServer(p.Name + "/token"),
		clients:  make(map[int]*vtime.Server),
		striping: make(map[string]stripeCfg),
	}
	fs.servers = make([]*vtime.Server, p.NServers)
	for i := range fs.servers {
		fs.servers[i] = vtime.NewServer(fmt.Sprintf("%s/srv%d", p.Name, i))
	}
	return fs
}

// SetVolatileWrites toggles crash-consistency modelling: while on, WriteAt
// content and size growth go into a volatile per-file overlay that becomes
// durable only when some handle of the file calls Sync (an OS page cache:
// one task's fsync flushes the whole file, including other tasks'
// unsynced writes). Reads and Size always see the durable state only —
// what a different node, or a post-crash mount, would observe. Extent
// allocation and time metering stay eager; only content
// durability is affected. Used by the watermark crash experiments (tab7).
func (fs *FS) SetVolatileWrites(on bool) { fs.volatile = on }

// Crash discards every unsynced volatile write, modelling a node failure:
// files revert to their last-synced content and size. A writer that dies
// at an arbitrary call before the crash is a Flaky rule over its views.
func (fs *FS) Crash() {
	for _, f := range fs.files {
		f.vpages = nil
		f.vsize = 0
	}
}

// SetStriping overrides the stripe count/size for files subsequently
// created in directory dirName (Lustre per-directory striping, Fig. 4b).
func (fs *FS) SetStriping(dirName string, count int, size int64) {
	if count < 1 {
		count = 1
	}
	if count > fs.prof.NServers {
		count = fs.prof.NServers
	}
	if size <= 0 {
		size = fs.prof.DefaultStripeSize
	}
	fs.striping[path.Clean(dirName)] = stripeCfg{count, size}
}

// DropCaches forgets inode and block-token state, modelling a fresh job on
// a production system (used between experiment phases).
func (fs *FS) DropCaches() {
	for _, f := range fs.files {
		f.inodeLoaded = false
		f.blockOwner = make(map[int64]int)
	}
}

// ResetServers returns all queueing servers to idle (a new measurement
// window starting at virtual time ~0 for procs created afterwards).
func (fs *FS) ResetServers() {
	for _, s := range fs.servers {
		s.Reset()
	}
	fs.token.Reset()
	for _, c := range fs.clients {
		c.Reset()
	}
	for _, d := range fs.dirs {
		d.srv.Reset()
	}
	for _, f := range fs.files {
		f.token.Reset()
	}
}

// NumFiles reports the number of existing files.
func (fs *FS) NumFiles() int { return len(fs.files) }

// UsedBytes reports allocated bytes.
func (fs *FS) UsedBytes() int64 { return fs.used }

func (fs *FS) dirOf(name string) *dir {
	d := path.Dir(path.Clean(name))
	if dd, ok := fs.dirs[d]; ok {
		return dd
	}
	dd := &dir{srv: vtime.NewServer(fs.prof.Name + "/meta:" + d)}
	fs.dirs[d] = dd
	return dd
}

func (fs *FS) client(task int) *vtime.Server {
	id := fs.prof.clientOf(task)
	c, ok := fs.clients[id]
	if !ok {
		c = vtime.NewServer(fmt.Sprintf("%s/client%d", fs.prof.Name, id))
		fs.clients[id] = c
	}
	return c
}

// homeServer deterministically assigns a file a "home" data server (used
// to charge per-file first-write allocation overhead somewhere balanced).
func (fs *FS) homeServer(name string) int {
	h := fnv.New64a()
	io.WriteString(h, name)
	return int(h.Sum64() % uint64(fs.prof.NServers))
}

// View binds the file system to one task: all operations through the view
// are attributed to the task's client link and advance proc's virtual
// clock. A nil proc performs the data operations with no time accounting
// (used by serial, offline tools).
func (fs *FS) View(task int, proc *vtime.Proc) *View {
	return &View{fs: fs, task: task, proc: proc}
}

// View is a per-task fsio.FileSystem over a shared FS.
type View struct {
	fs   *FS
	task int
	proc *vtime.Proc
}

var _ fsio.FileSystem = (*View)(nil)

// SpawnWorker starts a background worker process at the view's current
// virtual time, bound to the same task (and therefore the same client
// link) but carrying its own virtual clock, and returns that process.
// An async collector of internal/core hands its frames to such a worker
// (its vtimeFlusher), the discrete-event analog of the real-mode flusher
// goroutine, so collector file I/O genuinely overlaps the collector's
// computation in simulated time while every byte is still metered
// through the task's client link and the shared servers.
func (v *View) SpawnWorker(body func(fs fsio.FileSystem, p *vtime.Proc)) *vtime.Proc {
	fs, task := v.fs, v.task
	return v.proc.Engine().Spawn(v.proc.Now(), func(p *vtime.Proc) {
		body(fs.View(task, p), p)
	})
}

// Create implements fsio.FileSystem: it creates or truncates name, paying
// the serialized directory-creation cost.
func (v *View) Create(name string) (fsio.File, error) {
	name = path.Clean(name)
	fs := v.fs
	d := fs.dirOf(name)
	f, exists := fs.files[name]
	// Price and reserve the directory entry before queueing on the
	// metadata server: concurrent creates are all in flight together, so
	// each is priced by its enqueue position in the growing directory.
	var cost float64
	if exists {
		cost = fs.prof.OpenBase // truncating create of an existing entry
	} else {
		cost = fs.prof.createCost(d.entries)
		d.entries++
	}
	if v.proc != nil {
		d.srv.Use(v.proc, cost)
	}
	if !exists {
		cfg, ok := fs.striping[path.Dir(name)]
		if !ok {
			cfg = stripeCfg{fs.prof.DefaultStripeCount, fs.prof.DefaultStripeSize}
		}
		f = &file{
			name:        name,
			stripeCount: cfg.count,
			stripeSize:  cfg.size,
			token:       vtime.NewServer(fs.prof.Name + "/tok:" + name),
			soleWriter:  -1,
			readerSet:   make(map[int]bool),
			writerSet:   make(map[int]bool),
		}
		fs.files[name] = f
	} else {
		fs.used -= f.allocated()
		f.truncateTo(0)
		if f.written > 0 {
			fs.active--
			f.written = 0
		}
		f.soleWriter = -1
	}
	f.inodeLoaded = true
	f.pages = make(map[int64][]byte)
	f.objInit = false
	f.chargedW = make(map[int64]bool)
	f.chargedR = make(map[int64]bool)
	f.blockOwner = make(map[int64]int)
	f.writerCli = make(map[int]bool)
	f.removed = false
	f.opens++
	return &handle{v: v, f: f}, nil
}

// Open implements fsio.FileSystem (read access).
func (v *View) Open(name string) (fsio.File, error) { return v.open(name) }

// OpenRW implements fsio.FileSystem.
func (v *View) OpenRW(name string) (fsio.File, error) { return v.open(name) }

func (v *View) open(name string) (fsio.File, error) {
	name = path.Clean(name)
	fs := v.fs
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("simfs: open %s: %w", name, fsio.ErrNotExist)
	}
	cost := fs.prof.OpenBase
	if !f.inodeLoaded {
		cost += fs.prof.InodeLoad
	}
	// Mark the inode loaded before queueing on the metadata server: the
	// load is in flight, and concurrent opens of the same file just queue
	// behind it instead of each paying the load again.
	f.inodeLoaded = true
	f.opens++
	if v.proc != nil {
		fs.dirOf(name).srv.Use(v.proc, cost)
	}
	return &handle{v: v, f: f}, nil
}

// Stat implements fsio.FileSystem.
func (v *View) Stat(name string) (fsio.FileInfo, error) {
	name = path.Clean(name)
	f, ok := v.fs.files[name]
	if !ok {
		return fsio.FileInfo{}, fmt.Errorf("simfs: stat %s: %w", name, fsio.ErrNotExist)
	}
	if v.proc != nil {
		v.fs.dirOf(name).srv.Use(v.proc, v.fs.prof.StatCost)
	}
	return fsio.FileInfo{Name: name, Size: f.size}, nil
}

// Remove implements fsio.FileSystem.
func (v *View) Remove(name string) error {
	name = path.Clean(name)
	fs := v.fs
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("simfs: remove %s: %w", name, fsio.ErrNotExist)
	}
	if v.proc != nil {
		fs.dirOf(name).srv.Use(v.proc, fs.prof.RemoveCost)
	}
	fs.used -= f.allocated()
	if f.written > 0 {
		fs.active--
	}
	f.removed = true
	delete(fs.files, name)
	fs.dirOf(name).entries--
	return nil
}

// BlockSize implements fsio.FileSystem.
func (v *View) BlockSize(string) int64 { return v.fs.prof.FSBlockSize }

// allocated returns the physically allocated byte count (merged extents).
func (f *file) allocated() int64 {
	var n int64
	for _, e := range f.extents {
		n += e.end - e.off
	}
	return n
}

func (f *file) truncateTo(size int64) {
	f.size = size
	var kept []extent
	for _, e := range f.extents {
		if e.off >= size {
			continue
		}
		if e.end > size {
			e.end = size
		}
		kept = append(kept, e)
	}
	f.extents = kept
	for idx := range f.pages {
		if idx*pageSize >= size {
			delete(f.pages, idx)
		}
	}
}

// addExtent records [off,end) as allocated and returns newly allocated bytes.
func (f *file) addExtent(off, end int64) int64 {
	if end <= off {
		return 0
	}
	// Find overlap window.
	es := f.extents
	i := sort.Search(len(es), func(i int) bool { return es[i].end >= off })
	j := i
	newOff, newEnd := off, end
	var overlap int64
	for j < len(es) && es[j].off <= end {
		if es[j].off < newOff {
			newOff = es[j].off
		}
		if es[j].end > newEnd {
			newEnd = es[j].end
		}
		lo, hi := max(es[j].off, off), min(es[j].end, end)
		if hi > lo {
			overlap += hi - lo
		}
		j++
	}
	// In place: the merged range replaces es[i:j], or is inserted at i.
	f.extents = slices.Replace(es, i, j, extent{newOff, newEnd})
	return (end - off) - overlap
}

// handle is an open file bound to a task view.
type handle struct {
	v      *View
	f      *file
	wrote  bool // this handle wrote (close then updates file metadata)
	closed bool
}

var _ fsio.File = (*handle)(nil)

func (h *handle) check() error {
	if h.closed {
		return fmt.Errorf("simfs: %s: use of closed file", h.f.name)
	}
	if h.f.removed {
		return fmt.Errorf("simfs: %s: file was removed", h.f.name)
	}
	return nil
}

// WriteAt stores p at off (page-sparse) and meters the operation.
func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	if err := h.writeCommon(int64(len(p)), off); err != nil {
		return 0, err
	}
	h.storePages(p, off)
	return len(p), nil
}

// WriteZeroAt meters an n-byte write without materializing content.
func (h *handle) WriteZeroAt(n, off int64) error {
	if err := h.check(); err != nil {
		return err
	}
	return h.writeCommon(n, off)
}

func (h *handle) writeCommon(n, off int64) error {
	if n < 0 || off < 0 {
		return fmt.Errorf("simfs: %s: negative write", h.f.name)
	}
	if n == 0 {
		return nil
	}
	fs, f := h.v.fs, h.f
	f.writeReqs++
	if f.writerSet == nil {
		f.writerSet = make(map[int]bool)
	}
	f.writerSet[h.v.task] = true
	fs.used += f.addExtent(off, off+n)
	if fs.volatile {
		if off+n > f.vsize {
			f.vsize = off + n
		}
	} else if off+n > f.size {
		f.size = off + n
	}
	if f.written == 0 {
		fs.active++
	}
	f.dirtySize = true
	f.written += n
	f.writerCli[fs.prof.clientOf(h.v.task)] = true
	switch f.soleWriter {
	case -1:
		f.soleWriter = h.v.task
	case h.v.task:
	default:
		f.soleWriter = -2
	}
	h.wrote = true
	h.meter(n, off, true)
	return nil
}

// ReadAt fills p from off; unwritten regions read as zeros, reads past EOF
// are short with io.EOF (os.File semantics).
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	n, short := h.beginRead(int64(len(p)), off)
	h.meter(n, off, false)
	h.v.fs.readMu.Lock()
	h.loadPages(p[:n], off)
	h.v.fs.readMu.Unlock()
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// ReadDiscardAt meters an n-byte read without touching content.
func (h *handle) ReadDiscardAt(n, off int64) (int64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	got, _ := h.beginRead(n, off)
	h.meter(got, off, false)
	return got, nil
}

// beginRead counts a read request against the file and its issuing task
// and clamps it to the file size, under readMu.
func (h *handle) beginRead(n, off int64) (int64, bool) {
	h.v.fs.readMu.Lock()
	defer h.v.fs.readMu.Unlock()
	h.f.readReqs++
	if h.f.readerSet == nil {
		h.f.readerSet = make(map[int]bool)
	}
	h.f.readerSet[h.v.task] = true
	return h.clampRead(n, off)
}

func (h *handle) clampRead(n, off int64) (int64, bool) {
	if off >= h.f.size {
		return 0, true
	}
	if off+n > h.f.size {
		return h.f.size - off, true
	}
	return n, false
}

func (h *handle) Size() (int64, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	return h.f.size, nil
}

func (h *handle) Truncate(size int64) error {
	if err := h.check(); err != nil {
		return err
	}
	fs, f := h.v.fs, h.f
	fs.used -= f.allocated()
	f.truncateTo(size)
	fs.used += f.allocated()
	return nil
}

// Sync makes this file's pending volatile writes durable (whole-file, like
// an OS page-cache flush: it also promotes other handles' unsynced writes
// to the same file).
func (h *handle) Sync() error {
	if err := h.check(); err != nil {
		return err
	}
	fs, f := h.v.fs, h.f
	if fs.volatile {
		for idx, pg := range f.vpages {
			f.pages[idx] = pg
		}
		f.vpages = nil
		if f.vsize > f.size {
			f.size = f.vsize
		}
	}
	return nil
}

func (h *handle) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	// The first writer to close a dirty file flushes its size/attribute
	// update through the metadata service — once per file, so tens of
	// thousands of task-local files pay tens of thousands of updates while
	// a few multifile segments pay a handful (Table 2's bandwidth edge).
	if h.wrote && h.f.dirtySize && h.v.proc != nil && !h.f.removed {
		h.f.dirtySize = false
		h.v.fs.dirOf(h.f.name).srv.Use(h.v.proc, h.v.fs.prof.CloseUpdate)
	}
	return nil
}

// storePages writes real content into the sparse page map — or, in
// volatile mode, into the file's overlay (copy-on-first-touch from the
// durable page) so the bytes become visible to readers only after Sync.
func (h *handle) storePages(p []byte, off int64) {
	f := h.f
	volatile := h.v.fs.volatile
	for len(p) > 0 {
		idx := off / pageSize
		po := off % pageSize
		c := int64(len(p))
		if c > pageSize-po {
			c = pageSize - po
		}
		var pg []byte
		if volatile {
			if f.vpages == nil {
				f.vpages = make(map[int64][]byte)
			}
			if pg = f.vpages[idx]; pg == nil {
				pg = make([]byte, pageSize)
				if dp := f.pages[idx]; dp != nil {
					copy(pg, dp)
				}
				f.vpages[idx] = pg
			}
		} else {
			if pg = f.pages[idx]; pg == nil {
				pg = make([]byte, pageSize)
				f.pages[idx] = pg
			}
		}
		copy(pg[po:po+c], p[:c])
		p = p[c:]
		off += c
	}
}

// loadPages reads real content from the sparse page map (zeros elsewhere).
func (h *handle) loadPages(p []byte, off int64) {
	f := h.f
	for len(p) > 0 {
		idx := off / pageSize
		po := off % pageSize
		c := int64(len(p))
		if c > pageSize-po {
			c = pageSize - po
		}
		if pg := f.pages[idx]; pg != nil {
			copy(p[:c], pg[po:po+c])
		} else {
			for i := int64(0); i < c; i++ {
				p[i] = 0
			}
		}
		p = p[c:]
		off += c
	}
}

// meter charges virtual time for an n-byte transfer at off.
func (h *handle) meter(n, off int64, isWrite bool) {
	p := h.v.proc
	if p == nil || n == 0 {
		return
	}
	fs, f, prof := h.v.fs, h.f, h.v.fs.prof
	now := p.Now()
	bs := prof.FSBlockSize

	// 1. Block lock tokens (GPFS-style): stealing a block whose previous
	// writer/reader owner differs serializes through the token manager.
	revoke := prof.LockRevokeWrite
	if !isWrite {
		revoke = prof.LockRevokeRead
	}
	if revoke > 0 {
		first, last := off/bs, (off+n-1)/bs
		for b := first; b <= last; b++ {
			owner, owned := f.blockOwner[b]
			if owned && owner != h.v.task {
				fs.token.Use(p, revoke)
			}
			if isWrite {
				f.blockOwner[b] = h.v.task
			} else if owned && owner != h.v.task {
				// The read token demotes the previous writer's exclusive
				// hold; later reads of the block by others are free.
				f.blockOwner[b] = h.v.task
			}
		}
		now = p.Now()
	}

	// Data moves at file-system block granularity (GPFS-style whole-block
	// write-behind / readahead): the first touch of a block pays the whole
	// block, later touches ride the cached copy. A 52-byte-per-task
	// checkpoint therefore still costs one block per task (the floor the
	// paper observes in Fig. 6), while small sequential appends coalesce
	// as in a real page cache.
	charged := f.chargedW
	if !isWrite {
		charged = f.chargedR
	}
	var costBytes float64
	for b := off / bs; b <= (off+n-1)/bs; b++ {
		if !charged[b] {
			charged[b] = true
			costBytes += float64(bs)
		}
	}
	if costBytes == 0 {
		costBytes = float64(n) // rewrite/reread of already-charged blocks
	}

	// 2. Client link (I/O node / NIC shared by TasksPerClient tasks).
	lat := prof.WriteLatency
	if !isWrite {
		lat = prof.ReadLatency
	}
	cliEnd := fs.client(h.v.task).Reserve(now, costBytes/prof.ClientBW)

	srvBW := prof.ServerBW
	if !isWrite {
		srvBW *= prof.ReadBWFactor
		srvBW /= f.readScale(fs)
	}

	// 3. Per-file allocation/token pipe. A single file cannot drive the
	// whole server array: its achievable rate follows the stripe-coverage
	// curve Btot·(1−(1−w/S)ⁿ)/n for n active files of stripe width w over
	// S servers (the paper's Fig. 4 shapes; the paper itself attributes
	// the single-file limit to "the striping layout used by the GPFS file
	// server" without a deeper mechanism, so we model the observed curve).
	end := cliEnd
	nact := fs.active
	if nact < 1 {
		nact = 1
	}
	cfrac := float64(f.stripeCount) / float64(prof.NServers)
	if cfrac > 1 {
		cfrac = 1
	}
	coverage := 1 - math.Pow(1-cfrac, float64(nact))
	fileRate := float64(prof.NServers) * srvBW * coverage / float64(nact)
	if e := f.token.Reserve(now, costBytes/fileRate); e > end {
		end = e
	}

	// 4. Data servers: blocks are spread round-robin over the whole array
	// (balanced, GPFS-like); the array is the 6/40 GB/s aggregate cap.
	perSrv := costBytes / float64(prof.NServers) / srvBW
	for si, srv := range fs.servers {
		dur := perSrv
		if isWrite && !f.objInit && si == fs.homeServer(f.name) {
			dur += prof.ObjInit
		}
		if e := srv.Reserve(now, dur); e > end {
			end = e
		}
	}
	if isWrite {
		f.objInit = true
	}
	p.AdvanceTo(end + lat)
}

// readScale returns the divisor applied to server read bandwidth:
// >1 speeds reads up (cache, dedicated-file readahead), <1 slows them.
func (f *file) readScale(fs *FS) float64 {
	prof := fs.prof
	scale := 1.0
	// Client read cache: fraction of the data set resident in the
	// aggregate cache of the clients that wrote it.
	if prof.CacheBoost > 0 && f.written > 0 && len(f.writerCli) > 0 {
		agg := float64(len(f.writerCli)) * prof.ClientCacheBytes
		frac := agg / float64(f.written)
		if frac > 1 {
			frac = 1
		}
		scale *= 1 - prof.CacheBoost*frac
	}
	// Dedicated-file readahead: helps at low file-per-server counts,
	// thrashes at high ones.
	if prof.ExclusiveReadFactor != 0 && prof.ExclusiveReadFactor != 1 && f.soleWriter >= 0 {
		crowd := float64(fs.NumFiles()) / float64(prof.NServers)
		fct := prof.ExclusiveReadFactor
		if crowd > 1 {
			fct += prof.ReadCrowdPenalty * math.Log2(crowd)
		}
		scale *= fct
	}
	if scale <= 0.05 {
		scale = 0.05
	}
	return scale
}
