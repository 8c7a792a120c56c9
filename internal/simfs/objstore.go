package simfs

// Simulated object store: the second storage backend of the capability
// model. Where the POSIX-ish backends (fsio.OS, simfs View) accept
// writes of any shape in place, an object store speaks a request
// protocol — ranged GET, multipart PUT with a part-size floor, HEAD,
// DELETE — with no rename and no in-place update: rewriting bytes
// inside an already-durable part region means copying the part through
// the client (staged copy). Request geometry, not bandwidth, is what
// changes between the backends, so the simulation keeps the data plane
// exact and models the control plane:
//
//   - Data plane: every operation delegates to the wrapped inner
//     FileSystem immediately, so the bytes on the backing store are
//     exactly what a POSIX backend would hold and byte identity across
//     backends is structural, not asserted into existence.
//   - Control plane: an ObjStore instance (shared by all of its Wraps,
//     like Flaky) keeps the gateway's request ledger — GETs, PUTs,
//     staged copies, HEADs, DELETEs — and the sealed-part map of every
//     object. A write handle runs a contiguous append window; completed
//     parts flush eagerly, seams and Sync/Close flush the rest, and a
//     flush touching a part region some earlier flush already sealed
//     pays a staged copy (GET + PUT) instead of a plain PUT.
//
// Latency rides the same hook convention as Flaky: Wrap takes a sleep
// function (proc-advancing in simulations, nil in property tests) and
// charges the profile's per-request round trip for every counted
// request, on top of whatever the inner backend charges for the bytes.

import (
	"path"
	"sync"

	"repro/internal/fsio"
	"repro/internal/vtime"
)

// ObjProfile parameterizes the simulated object store's request
// geometry and latency.
type ObjProfile struct {
	// PartBytes is the multipart part size: the write durability unit,
	// the part-grid granularity of the sealed map, and the BlockSize the
	// backend reports (so block-aligned chunk geometry is part-aligned).
	PartBytes int64
	// MaxGetBytes is the largest single ranged GET; longer reads split.
	MaxGetBytes int64
	// PreferredGetBytes is the ranged-GET size the store performs best
	// at (the serve miss path's dense-span target).
	PreferredGetBytes int64
	// WriteFanout is the store's preferred number of concurrently
	// written objects (parallelism lives across objects, not within
	// one).
	WriteFanout int64
	// RequestSecs is the fixed per-request round trip charged through
	// the sleep hook for every GET/PUT/HEAD/DELETE.
	RequestSecs float64
}

// StockObjProfile is an S3-like profile: 8 MiB parts, 32 MiB GET
// ceiling, ~30 ms request round trips.
func StockObjProfile() ObjProfile {
	return ObjProfile{
		PartBytes:         8 << 20,
		MaxGetBytes:       32 << 20,
		PreferredGetBytes: 8 << 20,
		WriteFanout:       8,
		RequestSecs:       0.030,
	}
}

// SmallPartObjProfile scales the stock profile down (1 MiB parts, 4 MiB
// GET ceiling) so experiments and tests exercise the same geometry
// effects on megabyte-scale files.
func SmallPartObjProfile() ObjProfile {
	return ObjProfile{
		PartBytes:         1 << 20,
		MaxGetBytes:       4 << 20,
		PreferredGetBytes: 1 << 20,
		WriteFanout:       8,
		RequestSecs:       0.030,
	}
}

// ObjStats is the request ledger of one ObjStore: what an object-store
// gateway would bill for.
type ObjStats struct {
	Gets    int64 // ranged GETs (reads, plus the read half of staged copies)
	Puts    int64 // part PUTs (writes, plus the write half of staged copies)
	Copies  int64 // staged copies: flushes into an already-sealed part region
	Heads   int64 // HEAD requests (open/stat/size)
	Deletes int64 // DELETE requests
}

// Requests is the total request count.
func (s ObjStats) Requests() int64 {
	return s.Gets + s.Puts + s.Heads + s.Deletes
}

// ObjStore is the shared control-plane state of a simulated object
// store. All methods are safe for concurrent use; one instance may
// Wrap many inner file systems (one per simulated rank), which then
// share the request ledger and the sealed-part map, exactly like one
// gateway fronting all clients.
type ObjStore struct {
	mu     sync.Mutex
	prof   ObjProfile
	stats  ObjStats
	sealed map[string]map[int64]bool // object → sealed part indices
}

// NewObjStore builds an object store with the given profile. Zero or
// negative geometry fields fall back to the stock profile's values.
func NewObjStore(prof ObjProfile) *ObjStore {
	stock := StockObjProfile()
	if prof.PartBytes <= 0 {
		prof.PartBytes = stock.PartBytes
	}
	if prof.MaxGetBytes <= 0 {
		prof.MaxGetBytes = stock.MaxGetBytes
	}
	if prof.PreferredGetBytes <= 0 {
		prof.PreferredGetBytes = stock.PreferredGetBytes
	}
	return &ObjStore{prof: prof, sealed: make(map[string]map[int64]bool)}
}

// ObjProfileByName resolves a profile name for the -backend flag
// ("s3"/"stock", "smallpart"; "" = stock).
func ObjProfileByName(name string) (ObjProfile, bool) {
	switch name {
	case "", "s3", "stock":
		return StockObjProfile(), true
	case "smallpart":
		return SmallPartObjProfile(), true
	}
	return ObjProfile{}, false
}

// Stats returns a snapshot of the request ledger.
func (o *ObjStore) Stats() ObjStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// Wrap decorates inner with the object-store request model. sleep, when
// non-nil, delivers the per-request latency (pass a proc-advancing
// closure in simulations, nil to ignore latency). Unlike the
// pass-through decorators, the wrap is a backend in its own right: it
// reports its own capabilities and deliberately does NOT expose Unwrap
// (optional interfaces of the inner backend describe semantics this
// layer replaces). The one it keeps is a View's SpawnWorker, which is not
// a backend semantic but where an async collector's flusher runs.
func (o *ObjStore) Wrap(inner fsio.FileSystem, sleep func(seconds float64)) fsio.FileSystem {
	w := &objFS{o: o, inner: inner, sleep: sleep}
	if _, ok := inner.(spawner); ok {
		return objView{w}
	}
	return w
}

// objView is an objFS over a file system that can host a background
// worker and keeps its SpawnWorker: an async collector's worker makes its
// requests through the same store, and when the wrap delivers latency they
// advance the worker's own clock.
type objView struct{ *objFS }

func (w objView) SpawnWorker(body func(fsio.FileSystem, *vtime.Proc)) *vtime.Proc {
	return w.inner.(spawner).SpawnWorker(func(fs fsio.FileSystem, p *vtime.Proc) {
		var sleep func(float64)
		if w.sleep != nil {
			sleep = p.Advance
		}
		body(w.o.Wrap(fs, sleep), p)
	})
}

// charge bills n requests of the given ledger field and sleeps the
// round trips.
func (o *ObjStore) charge(field *int64, n int64, sleep func(float64)) {
	o.mu.Lock()
	*field += n
	o.mu.Unlock()
	if sleep != nil && o.prof.RequestSecs > 0 && n > 0 {
		sleep(float64(n) * o.prof.RequestSecs)
	}
}

// getRange bills the GETs covering one logical read of [off, off+n).
func (o *ObjStore) getRange(n int64, sleep func(float64)) {
	if n <= 0 {
		o.charge(&o.stats.Gets, 1, sleep)
		return
	}
	reqs := (n + o.prof.MaxGetBytes - 1) / o.prof.MaxGetBytes
	o.charge(&o.stats.Gets, reqs, sleep)
}

// putRange commits [off, end) of the named object: one PUT per touched
// part-grid region, upgraded to a staged copy (GET + PUT) for regions
// some earlier flush already sealed. First touch seals the region. Both
// callers pass a non-empty range.
func (o *ObjStore) putRange(name string, off, end int64, sleep func(float64)) {
	p := o.prof.PartBytes
	first, last := off/p, (end-1)/p
	var puts, copies int64
	o.mu.Lock()
	parts := o.sealed[name]
	if parts == nil {
		parts = make(map[int64]bool)
		o.sealed[name] = parts
	}
	for i := first; i <= last; i++ {
		if parts[i] {
			copies++
		} else {
			parts[i] = true
		}
		puts++
	}
	o.stats.Puts += puts
	o.stats.Gets += copies
	o.stats.Copies += copies
	o.mu.Unlock()
	if sleep != nil && o.prof.RequestSecs > 0 {
		sleep(float64(puts+copies) * o.prof.RequestSecs)
	}
}

// reset clears the sealed map of one object (Create = new object).
func (o *ObjStore) reset(name string) {
	o.mu.Lock()
	delete(o.sealed, name)
	o.mu.Unlock()
}

// objFS is one Wrap of an ObjStore around an inner backend.
type objFS struct {
	o     *ObjStore
	inner fsio.FileSystem
	sleep func(float64)
}

var _ fsio.FileSystem = (*objFS)(nil)
var _ fsio.CapabilityReporter = (*objFS)(nil)

// Capabilities reports the object-store geometry of the profile:
// multipart PUT floor, write fanout and ranged-GET sizes.
func (w *objFS) Capabilities() fsio.Capabilities {
	p := w.o.prof
	return fsio.Capabilities{
		PreferredRequestBytes: p.PreferredGetBytes,
		MaxReadBytes:          p.MaxGetBytes,
		PartSizeFloor:         p.PartBytes,
		WriteFanout:           p.WriteFanout,
	}
}

// Create initiates a new object (multipart-upload initiation: one
// control request) and forgets any previous generation's sealed parts.
func (w *objFS) Create(name string) (fsio.File, error) {
	name = path.Clean(name)
	fh, err := w.inner.Create(name)
	if err != nil {
		return nil, err
	}
	w.o.reset(name)
	w.o.charge(&w.o.stats.Puts, 1, w.sleep)
	return &objFile{w: w, inner: fh, name: name, winOff: -1}, nil
}

// Open costs one HEAD (existence + size).
func (w *objFS) Open(name string) (fsio.File, error) {
	name = path.Clean(name)
	fh, err := w.inner.Open(name)
	if err != nil {
		return nil, err
	}
	w.o.charge(&w.o.stats.Heads, 1, w.sleep)
	return &objFile{w: w, inner: fh, name: name, winOff: -1}, nil
}

// OpenRW costs one HEAD. Writes through the handle follow the staged-
// copy rules for any region already sealed by a previous handle: this
// is the path header rewrites take.
func (w *objFS) OpenRW(name string) (fsio.File, error) {
	name = path.Clean(name)
	fh, err := w.inner.OpenRW(name)
	if err != nil {
		return nil, err
	}
	w.o.charge(&w.o.stats.Heads, 1, w.sleep)
	return &objFile{w: w, inner: fh, name: name, winOff: -1}, nil
}

func (w *objFS) Stat(name string) (fsio.FileInfo, error) {
	name = path.Clean(name)
	fi, err := w.inner.Stat(name)
	if err != nil {
		return fsio.FileInfo{}, err
	}
	w.o.charge(&w.o.stats.Heads, 1, w.sleep)
	return fi, nil
}

func (w *objFS) Remove(name string) error {
	name = path.Clean(name)
	if err := w.inner.Remove(name); err != nil {
		return err
	}
	w.o.reset(name)
	w.o.charge(&w.o.stats.Deletes, 1, w.sleep)
	return nil
}

// BlockSize reports the part size — the store's only meaningful
// alignment — for any name, existing or not (the descriptor, not the
// namespace, answers).
func (w *objFS) BlockSize(string) int64 { return w.o.prof.PartBytes }

// objFile is one open object handle. Writes run a contiguous append
// window [winOff, winEnd): appends extend it (completed parts flush
// eagerly), a non-contiguous write flushes the window first, and
// Sync/Close flush the remainder. winOff < 0 means no open window.
type objFile struct {
	w     *objFS
	inner fsio.File
	name  string

	mu             sync.Mutex
	winOff, winEnd int64
}

var _ fsio.File = (*objFile)(nil)

// flushWindowLocked commits the open window as parts.
func (h *objFile) flushWindowLocked() {
	if h.winOff >= 0 && h.winEnd > h.winOff {
		h.w.o.putRange(h.name, h.winOff, h.winEnd, h.w.sleep)
	}
	h.winOff, h.winEnd = -1, 0
}

// noteWrite accounts one write of [off, off+n) against the window.
func (h *objFile) noteWrite(off, n int64) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.winOff >= 0 && off != h.winEnd {
		h.flushWindowLocked()
	}
	if h.winOff < 0 {
		h.winOff, h.winEnd = off, off
	}
	h.winEnd = off + n
	// Flush the window's completed parts eagerly so request counts do
	// not depend on when the handle is closed.
	p := h.w.o.prof.PartBytes
	if cut := (h.winEnd / p) * p; cut > h.winOff {
		h.w.o.putRange(h.name, h.winOff, cut, h.w.sleep)
		h.winOff = cut
		if h.winEnd == cut {
			h.winOff, h.winEnd = -1, 0
		}
	}
}

func (h *objFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := h.inner.ReadAt(p, off)
	h.w.o.getRange(int64(len(p)), h.w.sleep)
	return n, err
}

func (h *objFile) ReadDiscardAt(n, off int64) (int64, error) {
	got, err := h.inner.ReadDiscardAt(n, off)
	h.w.o.getRange(n, h.w.sleep)
	return got, err
}

func (h *objFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.inner.WriteAt(p, off)
	if err == nil {
		h.noteWrite(off, int64(len(p)))
	}
	return n, err
}

func (h *objFile) WriteZeroAt(n, off int64) error {
	err := h.inner.WriteZeroAt(n, off)
	if err == nil {
		h.noteWrite(off, n)
	}
	return err
}

// Truncate has no object-store analog; model it as a whole-object
// staged rewrite (GET + PUT) and forget sealed parts past the cut.
func (h *objFile) Truncate(size int64) error {
	if err := h.inner.Truncate(size); err != nil {
		return err
	}
	h.mu.Lock()
	h.flushWindowLocked()
	h.mu.Unlock()
	o := h.w.o
	o.mu.Lock()
	for i := range o.sealed[h.name] {
		if i*o.prof.PartBytes >= size {
			delete(o.sealed[h.name], i)
		}
	}
	o.stats.Gets++
	o.stats.Puts++
	o.stats.Copies++
	o.mu.Unlock()
	if h.w.sleep != nil && o.prof.RequestSecs > 0 {
		h.w.sleep(2 * o.prof.RequestSecs)
	}
	return nil
}

func (h *objFile) Size() (int64, error) {
	n, err := h.inner.Size()
	if err == nil {
		h.w.o.charge(&h.w.o.stats.Heads, 1, h.w.sleep)
	}
	return n, err
}

// Sync flushes the open window (sealing its parts); there is no
// further durability request to issue — parts are durable on seal.
func (h *objFile) Sync() error {
	h.mu.Lock()
	h.flushWindowLocked()
	h.mu.Unlock()
	return h.inner.Sync()
}

// Close flushes the open window and completes the handle.
func (h *objFile) Close() error {
	h.mu.Lock()
	h.flushWindowLocked()
	h.mu.Unlock()
	return h.inner.Close()
}
