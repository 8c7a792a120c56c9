package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The block cache checked against a model, one operation at a time. The
// model restates the protocol of cache.go in the plainest terms — a map of
// key states, a slice for each shard's LRU order, a byte count — and
// predicts every claim, hit, eviction and read-around; a mirror sketch fed
// the accesses the model says a shard records predicts each admission, and
// must equal the shard's own. Bytes are versioned: each fill writes a
// pattern unique to its key, fill and offset, so a hit that copies a stale,
// recycled or uncovered byte shows. A re-fill of a partly resident block
// takes the hull of the two ranges — out to the cap if the window starts
// in the old range or right after it — and must read exactly what the old
// copy lacks of it, into the old copy's own slot, whose bytes are checked
// as soon as it is pending; or all of the hull where what the copy lacks
// is not one range reaching every end of the block the window touches. A
// reservation may be capped, as at a live frontier (tail.go): no fill may
// reach past the cap in force when it was reserved. Frames are checked as
// memory: no two slots' frames overlap, a shard takes a new frame only
// when every vacated slot is pinned, and past its budget the cache takes
// no more than those extra slots hold. And a reader parked on a pending entry must wake when the
// entry is aborted, which the harness checks on a real parked goroutine.

// fuzzFSBlock and fuzzBlock are the model cache's geometry: an FS block
// smaller than the cache block, so frames hold partial ranges.
const fuzzFSBlock, fuzzBlock = 4, 16

// pattern is byte i of key k's fill number v.
func pattern(k blockKey, v int, i int64) byte {
	return byte(k.file*131 + int(k.block)*31 + v*7 + int(i))
}

type modelEntry struct {
	pending, cold bool // cold: admitted by frequency, not hit since
	lo, hi        int64
	fill          [fuzzBlock]int // per byte, the fill whose bytes the frame holds
}

type modelShard struct {
	entries               map[blockKey]*modelEntry
	lru                   []blockKey // most recently used first
	bytes                 int64
	freq                  freqSketch // the accesses the model records, in the shard's sketch type
	evictions, readAround int64
	outstanding           int   // reservations not yet committed or aborted
	budget                int64 // whole blocks: the total's share, plus one leftover block for the first shards
	peakSlots             int   // the most slots the shard needed at once: its blocks and its pinned vacated slots
}

// cacheModel drives a real blockCache and its model side by side.
type cacheModel struct {
	t            *testing.T
	c            *blockCache
	shards       []modelShard
	held         []fill // reservations the harness holds
	fills        int
	hits, misses int64 // predicted by the model
	gotHits      int64 // claimHit and copyOut hits of the real cache
	gotMisses    int64
	pins         []pin
}

// pin is a copyOut in flight, frozen, or a hit that pinned its frame to
// copy later: the frame it reads and the bytes it must still find there.
type pin struct {
	e      *cacheEntry
	frame  []byte
	lo, hi int64
	want   []byte
}

// newCacheModel builds a cache of blocks whole blocks, plus a part block
// that must not count, over shards shards.
func newCacheModel(t *testing.T, shards, blocks int) *cacheModel {
	m := &cacheModel{t: t, c: newBlockCache(int64(blocks*fuzzBlock+fuzzBlock/2), shards, fuzzBlock)}
	m.c.fsBlock = fuzzFSBlock
	m.shards = make([]modelShard, len(m.c.shards))
	for i := range m.c.shards {
		m.c.shards[i].evictions, m.c.shards[i].readAround = new(atomic.Int64), new(atomic.Int64)
		m.shards[i].entries = make(map[blockKey]*modelEntry)
		m.shards[i].budget = int64(blocks/shards) * fuzzBlock
		if i < blocks%shards {
			m.shards[i].budget += fuzzBlock
		}
	}
	return m
}

func (m *cacheModel) shard(k blockKey) (*cacheShard, *modelShard) {
	i := m.c.shardIndex(k)
	return &m.c.shards[i], &m.shards[i]
}

// touch moves k to the front of ms's LRU order.
func (ms *modelShard) touch(k blockKey) {
	ms.lru = slices.DeleteFunc(ms.lru, func(x blockKey) bool { return x == k })
	ms.lru = slices.Insert(ms.lru, 0, k)
}

// evictTail drops ms's LRU tail, counted as an eviction.
func (ms *modelShard) evictTail() {
	v := ms.lru[len(ms.lru)-1]
	ms.lru = ms.lru[:len(ms.lru)-1]
	delete(ms.entries, v)
	ms.bytes -= fuzzBlock
	ms.evictions++
}

// hit checks the bytes of a hit against the model's last fill of k and
// updates the model as a hit does.
func (m *cacheModel) hit(ms *modelShard, k blockKey, dst []byte, from int64) {
	me := ms.entries[k]
	for i := range dst {
		v := me.fill[from+int64(i)]
		if want := pattern(k, v, from+int64(i)); dst[i] != want {
			m.t.Fatalf("hit of %v at %d+%d: byte %d is %#x, fill %d wrote %#x", k, from, len(dst), i, dst[i], v, want)
		}
	}
	ms.freq.record(k)
	ms.touch(k)
	me.cold = false
	m.hits++
}

// fillBytes is what the model says the n bytes of k at from hold.
func (me *modelEntry) fillBytes(k blockKey, from, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = pattern(k, me.fill[from+int64(i)], from+int64(i))
	}
	return out
}

func covers(me *modelEntry, from, n int64) bool {
	return !me.pending && me.lo <= from && from+n <= me.hi
}

// acquire runs one acquire, whose fills the block's committed end top caps,
// and checks its claim, and the entry and read of a miss, against the
// model's. A hit with pin set pins the frame, to copy later (unpin),
// perhaps after its entry was evicted and its slot reserved again.
func (m *cacheModel) acquire(k blockKey, from, n, top int64, around, pinHit bool) {
	s, ms := m.shard(k)
	lo := from / fuzzFSBlock * fuzzFSBlock
	hi := min((from+n+fuzzFSBlock-1)/fuzzFSBlock*fuzzFSBlock, top)
	dst := make([]byte, n)
	old := s.items[k]
	f, got := m.c.acquire(k, dst, from, 0, top, fuzzBlock, around, pinHit)

	want := claimMine
	me, ok := ms.entries[k]
	switch {
	case ok && me.pending:
		want = claimWait
	case ok && covers(me, from, n) && pinHit:
		want = claimPinned
	case ok && covers(me, from, n):
		want = claimHit
	}
	if got != want && want != claimMine {
		m.t.Fatalf("acquire %v [%d, %d) around=%v: claim %d, model says %d", k, from, from+n, around, got, want)
	}
	switch want {
	case claimWait:
		return
	case claimHit:
		m.gotHits++
		m.hit(ms, k, dst, from)
		return
	case claimPinned:
		m.gotHits++
		copy(dst, me.fillBytes(k, from, n)) // what the copy must find, whenever it comes
		m.hit(ms, k, dst, from)
		m.pins = append(m.pins, pin{f.e, f.dst, 0, n, dst})
		return
	}
	if from+n > top { // past the committed end: read around, not recorded
		if got != claimAround || f.e != nil || len(f.dst) != int(n) || f.from != from {
			m.t.Fatalf("acquire %v [%d, %d) past top %d: claim %d, fill %+v; want it read around", k, from, from+n, top, got, f)
		}
		m.gotMisses++
		m.misses++
		ms.readAround++
		return
	}
	m.misses++
	// A re-fill keeps the hull of the old range and the window's — if the
	// old range ends at or below top — out to top if the window starts in the old range or right
	// after it. Its read fills what the old copy lacks of the hull if that
	// is one range reaching every end of the block the window touches (a
	// span's reads join there), and the copy's slot grows in place; else
	// the read fills the hull.
	next := modelEntry{pending: true, lo: lo, hi: hi}
	rlo, rhi := lo, hi
	inPlace := false
	if ok && me.hi <= top {
		olo, ohi := me.lo, me.hi
		if olo <= from && from <= ohi {
			next.hi = top
		}
		next.lo, next.hi = min(lo, olo), max(next.hi, ohi)
		rlo, rhi = next.lo, next.hi
		switch {
		case olo == next.lo:
			rlo = ohi
		case ohi == next.hi:
			rhi = olo
		}
		if from == 0 && rlo != 0 || from+n == fuzzBlock && rhi != fuzzBlock {
			rlo, rhi = next.lo, next.hi
		}
		if rlo >= ohi || rhi <= olo {
			inPlace = true
			copy(next.fill[olo:ohi], me.fill[olo:ohi])
		}
	}
	full := ms.bytes+fuzzBlock > ms.budget
	if full && ms.freq.count == nil {
		ms.freq.init(ms.budget/fuzzBlock, ablation{})
	}
	ms.freq.record(k)
	cold := !ok && around && full
	if cold && len(ms.lru) > 0 && int(ms.freq.est(k)) <= 2*int(ms.freq.est(ms.lru[len(ms.lru)-1])) { // not twice the tail's
		want = claimAround
	}
	if got != want {
		m.t.Fatalf("acquire %v [%d, %d) around=%v: claim %d, model says %d (est %d, tail %v)",
			k, from, from+n, around, got, want, ms.freq.est(k), ms.lru)
	}
	m.gotMisses++
	if want == claimAround {
		ms.readAround++
		return
	}
	if ok {
		ms.lru = slices.DeleteFunc(ms.lru, func(x blockKey) bool { return x == k })
		ms.bytes -= fuzzBlock
	}
	for !inPlace && ms.bytes+fuzzBlock > ms.budget && len(ms.lru) > 0 {
		ms.evictTail()
	}
	next.cold = cold
	ms.entries[k] = &next
	ms.bytes += fuzzBlock
	ms.outstanding++
	e := f.e
	if inPlace && e != old {
		m.t.Fatalf("acquire %v [%d, %d): a re-fill that reads only what the copy lacks took another slot", k, from, from+n)
	}
	if e.hi > top || f.from+int64(len(f.dst)) > top {
		m.t.Fatalf("acquire %v: reserved [%d, %d), reads from %d+%d, past the committed end %d", k, e.lo, e.hi, f.from, len(f.dst), top)
	}
	if e.lo != next.lo || e.hi != next.hi || e.cold != cold {
		m.t.Fatalf("acquire %v: reserved [%d, %d) cold=%v, model [%d, %d) cold=%v", k, e.lo, e.hi, e.cold, next.lo, next.hi, cold)
	}
	if f.from != rlo || f.from+int64(len(f.dst)) != rhi || len(f.dst) > 0 && &f.dst[0] != &e.data[rlo] {
		m.t.Fatalf("acquire %v [%d, %d): reads [%d, %d) of [%d, %d), model [%d, %d)",
			k, from, from+n, f.from, f.from+int64(len(f.dst)), e.lo, e.hi, rlo, rhi)
	}
	for x := e.lo; x < e.hi; x++ {
		if v := next.fill[x]; v != 0 && e.data[x] != pattern(k, v, x) {
			m.t.Fatalf("acquire %v: byte %d of fill %d was not carried over", k, x, v)
		}
	}
	m.held = append(m.held, f)
}

// settle commits (writing a new fill's bytes over the range its read
// fills, as the miss path does) or aborts held reservation i.
func (m *cacheModel) settle(i int, commit bool) {
	f := m.held[i]
	e := f.e
	m.held = slices.Delete(m.held, i, i+1)
	k := e.key
	_, ms := m.shard(k)
	me := ms.entries[k]
	ms.outstanding--
	if !commit {
		m.c.abort(e)
		delete(ms.entries, k)
		ms.bytes -= fuzzBlock
		return
	}
	m.fills++
	me.pending = false
	for x := f.from; x < f.from+int64(len(f.dst)); x++ {
		me.fill[x] = m.fills
		e.data[x] = pattern(k, m.fills, x)
	}
	m.c.commit(e)
	for ms.bytes > ms.budget && len(ms.lru) > 0 {
		ms.evictTail()
	}
	if me.cold {
		ms.lru = append(ms.lru, k)
	} else {
		ms.lru = slices.Insert(ms.lru, 0, k)
	}
}

// copyOut runs one lookup.
func (m *cacheModel) copyOut(k blockKey, from, n int64) {
	_, ms := m.shard(k)
	dst := make([]byte, n)
	got := m.c.copyOut(m.c.shardIndex(k), k, dst, from)
	me, ok := ms.entries[k]
	if want := ok && covers(me, from, n); got != want {
		m.t.Fatalf("copyOut %v [%d, %d): hit %v, model says %v (%+v)", k, from, from+n, got, want, me)
	}
	if got {
		m.gotHits++
		m.hit(ms, k, dst, from)
	} else {
		m.gotMisses++
		m.misses++
	}
}

// pinHit runs one pin, a hit that copies later (unpin), perhaps after
// its entry was evicted and its slot reserved again; a miss claims nothing.
func (m *cacheModel) pinHit(k blockKey, from, n int64) {
	_, ms := m.shard(k)
	e, src := m.c.pin(m.c.shardIndex(k), k, make([]byte, n), from)
	me, ok := ms.entries[k]
	if want := ok && covers(me, from, n); (e != nil) != want {
		m.t.Fatalf("pin %v [%d, %d): hit %v, model says %v (%+v)", k, from, from+n, e != nil, want, me)
	}
	if e == nil {
		m.gotMisses++
		m.misses++
		return
	}
	m.gotHits++
	want := me.fillBytes(k, from, n) // what the copy must find, whenever it comes
	m.hit(ms, k, want, from)
	m.pins = append(m.pins, pin{e, src, 0, n, want})
}

// parkAndAbort parks a reader on held reservation i, a pending entry, and
// aborts it: the reader must wake. It waits until the reader sleeps on the
// shard's sync.Cond — by then it holds its wake-up ticket — so the wake-up
// is abort's own, on every schedule.
func (m *cacheModel) parkAndAbort(i int) {
	k := m.held[i].e.key
	id, woke := make(chan string, 1), make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		id <- strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1] // "goroutine <id> [running]:"
		m.c.wait(k)
		close(woke)
	}()
	for waiter := <-id; !sleepsOnCond(waiter); {
		runtime.Gosched()
	}
	m.settle(i, false)
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		m.t.Fatalf("a reader parked on pending block %v did not wake when it was aborted", k)
	}
}

// pinFrame freezes a copyOut of resident block k: its frame may not be
// handed to another block until unpinned.
func (m *cacheModel) pinFrame(k blockKey) {
	s, _ := m.shard(k)
	e, ok := s.items[k]
	if !ok || e.pending {
		return
	}
	e.readers.Add(1)
	m.pins = append(m.pins, pin{e, e.data, e.lo, e.hi, bytes.Clone(e.data[e.lo:e.hi])})
}

// unpin copies what pin i reads and releases it.
func (m *cacheModel) unpin(i int) {
	p := m.pins[i]
	m.pins = slices.Delete(m.pins, i, i+1)
	if !bytes.Equal(bytes.Clone(p.frame[p.lo:p.hi]), p.want) {
		m.t.Fatalf("a pinned frame of %v was rewritten under its reader", p.e.key)
	}
	p.e.unpin()
}

// sleepsOnCond reports whether goroutine id sleeps on a sync.Cond, by its
// status in a dump of every goroutine's stack.
func sleepsOnCond(id string) bool {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	return strings.Contains(string(buf[:n]), "goroutine "+id+" [sync.Cond.Wait")
}

// check compares every shard with its model.
func (m *cacheModel) check(op string) {
	m.t.Helper()
	for i := range m.c.shards {
		s, ms := &m.c.shards[i], &m.shards[i]
		var order []blockKey
		for e := s.lru.next; e != &s.lru; e = e.next {
			order = append(order, e.key)
		}
		switch {
		case !slices.Equal(order, ms.lru):
			m.t.Fatalf("after %s: shard %d LRU %v, model %v", op, i, order, ms.lru)
		case s.bytes != ms.bytes:
			m.t.Fatalf("after %s: shard %d charges %d bytes, model %d", op, i, s.bytes, ms.bytes)
		case s.budget != ms.budget:
			m.t.Fatalf("after %s: shard %d has a budget of %d bytes, model %d", op, i, s.budget, ms.budget)
		case ms.outstanding == 0 && s.bytes > ms.budget:
			m.t.Fatalf("after %s: shard %d holds %d bytes with no reservation outstanding, budget %d", op, i, s.bytes, ms.budget)
		case len(s.items) != len(ms.entries):
			m.t.Fatalf("after %s: shard %d maps %d blocks, model %d", op, i, len(s.items), len(ms.entries))
		case !slices.Equal(s.freq.count, ms.freq.count) || s.freq.seen != ms.freq.seen:
			m.t.Fatalf("after %s: shard %d counted other accesses than the model", op, i)
		case s.evictions.Load() != ms.evictions || s.readAround.Load() != ms.readAround:
			m.t.Fatalf("after %s: shard %d counts %d evictions and %d read-arounds, model %d and %d",
				op, i, s.evictions.Load(), s.readAround.Load(), ms.evictions, ms.readAround)
		}
		for k, me := range ms.entries {
			e, ok := s.items[k]
			if !ok || e.pending != me.pending || e.lo != me.lo || e.hi != me.hi {
				m.t.Fatalf("after %s: block %v is %+v, model %+v", op, k, e, me)
			}
		}
		for x := 1; x < len(order); x++ {
			if ms.entries[order[x-1]].cold && !ms.entries[order[x]].cold {
				m.t.Fatalf("after %s: shard %d LRU %v: block %v, admitted by frequency and never hit since, is ahead of %v",
					op, i, order, order[x-1], order[x])
			}
		}
	}
	if m.gotHits != m.hits || m.gotMisses != m.misses {
		m.t.Fatalf("after %s: %d hits and %d misses, model %d and %d", op, m.gotHits, m.gotMisses, m.hits, m.misses)
	}
	m.checkFrames(op)
}

// checkFrames checks the cache's frames as memory. Every slot's frame —
// resident, pending or vacated — is disjoint from every other's, and each
// pin reads inside its slot's frame. A shard has exactly as many slots as
// it ever needed at once, counting its blocks and its vacated slots still
// pinned: it took no frame while a vacated one was free to reuse. And the
// cache took no more memory than its budget and the frames of the slots a
// shard holds beyond its own budget, which only pins and reservations
// overrunning the shard call for.
func (m *cacheModel) checkFrames(op string) {
	type frame struct {
		lo, hi uintptr
		e      *cacheEntry
	}
	var frames []frame
	add := func(e *cacheEntry) {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(e.data)))
		frames = append(frames, frame{lo, lo + uintptr(cap(e.data)), e})
	}
	over := int64(0)
	for i := range m.c.shards {
		s, ms := &m.c.shards[i], &m.shards[i]
		slots, needed := len(s.items), len(s.items)
		for _, e := range s.items {
			add(e)
		}
		for e := s.free; e != nil; e = e.next {
			add(e)
			slots++
			if e.readers.Load() != 0 {
				needed++
			}
		}
		ms.peakSlots = max(ms.peakSlots, needed)
		if slots != ms.peakSlots {
			m.t.Fatalf("after %s: shard %d has %d slots, but needed at most %d at once", op, i, slots, ms.peakSlots)
		}
		over += max(0, int64(slots)*fuzzBlock-ms.budget)
	}
	slices.SortFunc(frames, func(a, b frame) int { return cmp.Compare(a.lo, b.lo) })
	for x := 1; x < len(frames); x++ {
		if a, b := frames[x-1], frames[x]; a.hi > b.lo {
			m.t.Fatalf("after %s: the frames of %v and %v overlap", op, a.e.key, b.e.key)
		}
	}
	for _, p := range m.pins {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(p.frame)))
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(p.e.data)))
		if at < lo || at+uintptr(len(p.frame)) > lo+uintptr(cap(p.e.data)) {
			m.t.Fatalf("after %s: a pin of %v reads outside its slot's frame", op, p.e.key)
		}
	}
	if m.c.taken > m.c.budget+over {
		m.t.Fatalf("after %s: the cache took %d bytes of frames, budget %d, slots past their shards' budgets %d",
			op, m.c.taken, m.c.budget, over)
	}
}

// run decodes data into operations: a geometry byte, then four bytes per
// operation.
func (m *cacheModel) run(data []byte) {
	keys := func(b byte) blockKey { return blockKey{int(b>>3) & 1, int64(b & 7)} }
	for len(data) >= 4 {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		k := keys(a)
		from := int64(b) % fuzzBlock
		n := 1 + int64(c)%(fuzzBlock-from)
		var name string
		switch op % 8 {
		case 0, 1, 2:
			// A window from the block's start, to its end, or both: a
			// span's last, first or interior block.
			toEnd := a&0x40 != 0
			if a&0x20 != 0 {
				from, n = 0, 1+int64(c)%fuzzBlock
			}
			if toEnd {
				n = fuzzBlock - from
			}
			around := n >= fuzzFSBlock || c&0x80 != 0 // the request may be larger than this block's share
			top := int64(fuzzBlock)
			switch {
			case b&0x80 != 0 && op&0x40 != 0: // a live frontier short of the window's end: a raw read past it
				top = int64(b>>4&7) % (from + n)
			case b&0x80 != 0 && !toEnd: // a live frontier in the block, at or past the window
				top = from + n + int64(b>>4&7)%(fuzzBlock-from-n+1)
			}
			pin := op&0x80 != 0 // after the request's first miss
			m.acquire(k, from, n, top, around, pin)
			name = fmt.Sprintf("acquire %v [%d, %d) top=%d around=%v pin=%v", k, from, from+n, top, around, pin)
		case 3, 4:
			if len(m.held) == 0 {
				continue
			}
			i := int(b) % len(m.held)
			name = fmt.Sprintf("commit %v", m.held[i].e.key)
			m.settle(i, true)
		case 5:
			if len(m.held) == 0 {
				continue
			}
			i := int(b) % len(m.held)
			name = fmt.Sprintf("abort %v", m.held[i].e.key)
			m.settle(i, false)
		case 6:
			if a&0x10 != 0 {
				m.pinHit(k, from, n)
				name = fmt.Sprintf("pin %v [%d, %d)", k, from, from+n)
				break
			}
			m.copyOut(k, from, n)
			name = fmt.Sprintf("copyOut %v [%d, %d)", k, from, from+n)
		case 7:
			switch {
			case c%4 == 0:
				if len(m.held) == 0 {
					continue
				}
				i := int(b) % len(m.held)
				name = fmt.Sprintf("park and abort %v", m.held[i].e.key)
				m.parkAndAbort(i)
			case c%4 == 1:
				m.pinFrame(k)
				name = fmt.Sprintf("pin frame %v", k)
			case len(m.pins) > 0:
				name = "unpin"
				m.unpin(int(b) % len(m.pins))
			default:
				continue
			}
		}
		m.check(name)
	}
	for len(m.held) > 0 {
		m.settle(0, true)
		m.check("final commit")
	}
	for len(m.pins) > 0 {
		m.unpin(0)
	}
}

// FuzzBlockCache checks the block cache against its model: 1–2 shards of
// 2–6 blocks, an FS block a quarter of the cache block, sixteen keys over
// two files, and any sequence of acquire (any window, capped or not,
// read-around allowed or not), commit, abort, copyOut, a hit that pins now
// and copies later, an abort under a parked reader and pinned copy-outs.
func FuzzBlockCache(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{9, 64, 400, 1600, 4000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shards := 1 + int(data[0]&1)
		m := newCacheModel(t, shards, shards*(2+int(data[0]>>1)%5)+int(data[0]>>7)%shards)
		m.run(data[1:])
	})
}
