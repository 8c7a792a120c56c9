package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The block cache checked against a model, one operation at a time. The
// model restates the protocol of cache.go in the plainest terms — a map of
// key states, a slice for each shard's LRU order, a byte count — and
// predicts every claim, hit, eviction and read-around; a mirror sketch fed
// the accesses the model says a shard records predicts each admission, and
// must equal the shard's own. Bytes are versioned: each fill writes a
// pattern unique to its key, fill and offset, so a hit that copies a stale,
// recycled or uncovered byte shows. A reservation may be capped, as at a
// live frontier (tail.go): no fill may reach past the cap in force when it
// was reserved. And a reader parked on a pending entry must wake when the
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
	fill          int // the fill whose bytes the frame holds (resident)
}

type modelShard struct {
	entries               map[blockKey]*modelEntry
	lru                   []blockKey // most recently used first
	bytes                 int64
	freq                  freqSketch // the accesses the model records, in the shard's sketch type
	evictions, readAround int64
	outstanding           int // reservations not yet committed or aborted
}

// cacheModel drives a real blockCache and its model side by side.
type cacheModel struct {
	t            *testing.T
	c            *blockCache
	shards       []modelShard
	held         []*cacheEntry // reservations the harness holds
	fills        int
	hits, misses int64 // predicted by the model
	gotHits      int64 // claimHit and copyOut hits of the real cache
	gotMisses    int64
	pins         []pin
}

// pin is a copyOut in flight, frozen: the frame it reads and the bytes it
// must still find there.
type pin struct {
	e      *cacheEntry
	frame  []byte
	lo, hi int64
	want   []byte
}

func newCacheModel(t *testing.T, shards, blocks int) *cacheModel {
	m := &cacheModel{t: t, c: newBlockCache(int64(shards*blocks*fuzzBlock), shards)}
	m.shards = make([]modelShard, len(m.c.shards))
	for i := range m.c.shards {
		m.c.shards[i].evictions, m.c.shards[i].readAround = &obs.Counter{}, &obs.Counter{}
		m.shards[i].entries = make(map[blockKey]*modelEntry)
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
		if want := pattern(k, me.fill, from+int64(i)); dst[i] != want {
			m.t.Fatalf("hit of %v at %d+%d: byte %d is %#x, fill %d wrote %#x", k, from, len(dst), i, dst[i], me.fill, want)
		}
	}
	ms.freq.record(k)
	ms.touch(k)
	me.cold = false
	m.hits++
}

func covers(me *modelEntry, from, n int64) bool {
	return !me.pending && me.lo <= from && from+n <= me.hi
}

// acquire runs one acquire, whose fills the block's committed end top caps,
// and checks its claim against the model's.
func (m *cacheModel) acquire(k blockKey, from, n, top int64, around bool) {
	_, ms := m.shard(k)
	lo := from / fuzzFSBlock * fuzzFSBlock
	hi := min((from+n+fuzzFSBlock-1)/fuzzFSBlock*fuzzFSBlock, top)
	dst := make([]byte, n)
	e, got := m.c.acquire(k, dst, from, lo, hi, top, fuzzBlock, around)

	want := claimMine
	me, ok := ms.entries[k]
	switch {
	case ok && me.pending:
		want = claimWait
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
	}
	m.misses++
	if ok {
		lo, hi = 0, top
	}
	full := ms.bytes+fuzzBlock > m.c.perShard
	if full && ms.freq.count == nil {
		ms.freq.init(m.c.perShard / fuzzBlock)
	}
	ms.freq.record(k)
	cold := !ok && around && full
	if cold && len(ms.lru) > 0 && ms.freq.est(k) <= ms.freq.est(ms.lru[len(ms.lru)-1]) {
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
	for ms.bytes+fuzzBlock > m.c.perShard && len(ms.lru) > 0 {
		ms.evictTail()
	}
	ms.entries[k] = &modelEntry{pending: true, cold: cold, lo: lo, hi: hi}
	ms.bytes += fuzzBlock
	ms.outstanding++
	if e.hi > top {
		m.t.Fatalf("acquire %v: reserved [%d, %d) past the committed end %d", k, e.lo, e.hi, top)
	}
	if e.lo != lo || e.hi != hi || e.cold != cold {
		m.t.Fatalf("acquire %v: reserved [%d, %d) cold=%v, model [%d, %d) cold=%v", k, e.lo, e.hi, e.cold, lo, hi, cold)
	}
	m.held = append(m.held, e)
}

// settle commits (writing a new fill's bytes over the entry's valid
// range, as the miss path does) or aborts held reservation i.
func (m *cacheModel) settle(i int, commit bool) {
	e := m.held[i]
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
	me.fill, me.pending = m.fills, false
	for x := e.lo; x < e.hi; x++ {
		e.data[x] = pattern(k, me.fill, x)
	}
	m.c.commit(e)
	for ms.bytes > m.c.perShard && len(ms.lru) > 0 {
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

// parkAndAbort parks a reader on held reservation i, a pending entry, and
// aborts it: the reader must wake. It waits until the reader sleeps on the
// shard's sync.Cond — by then it holds its wake-up ticket — so the wake-up
// is abort's own, on every schedule.
func (m *cacheModel) parkAndAbort(i int) {
	k := m.held[i].key
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

func (m *cacheModel) unpin(i int) {
	p := m.pins[i]
	m.pins = slices.Delete(m.pins, i, i+1)
	if !bytes.Equal(p.frame[p.lo:p.hi], p.want) {
		m.t.Fatalf("a pinned frame of %v was rewritten under its reader", p.e.key)
	}
	p.e.readers.Add(-1)
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
		case ms.outstanding == 0 && s.bytes > m.c.perShard:
			m.t.Fatalf("after %s: shard %d holds %d bytes with no reservation outstanding, budget %d", op, i, s.bytes, m.c.perShard)
		case len(s.items) != len(ms.entries):
			m.t.Fatalf("after %s: shard %d maps %d blocks, model %d", op, i, len(s.items), len(ms.entries))
		case !slices.Equal(s.freq.count, ms.freq.count) || s.freq.seen != ms.freq.seen:
			m.t.Fatalf("after %s: shard %d counted other accesses than the model", op, i)
		case s.evictions.Value() != ms.evictions || s.readAround.Value() != ms.readAround:
			m.t.Fatalf("after %s: shard %d counts %d evictions and %d read-arounds, model %d and %d",
				op, i, s.evictions.Value(), s.readAround.Value(), ms.evictions, ms.readAround)
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
			around := n >= fuzzFSBlock || c&0x80 != 0 // the request may be larger than this block's share
			top := int64(fuzzBlock)
			if b&0x80 != 0 { // a live frontier in the block, at or past the window
				top = from + n + int64(b>>4&7)%(fuzzBlock-from-n+1)
			}
			m.acquire(k, from, n, top, around)
			name = fmt.Sprintf("acquire %v [%d, %d) top=%d around=%v", k, from, from+n, top, around)
		case 3, 4:
			if len(m.held) == 0 {
				continue
			}
			i := int(b) % len(m.held)
			name = fmt.Sprintf("commit %v", m.held[i].key)
			m.settle(i, true)
		case 5:
			if len(m.held) == 0 {
				continue
			}
			i := int(b) % len(m.held)
			name = fmt.Sprintf("abort %v", m.held[i].key)
			m.settle(i, false)
		case 6:
			m.copyOut(k, from, n)
			name = fmt.Sprintf("copyOut %v [%d, %d)", k, from, from+n)
		case 7:
			switch {
			case c%4 == 0:
				if len(m.held) == 0 {
					continue
				}
				i := int(b) % len(m.held)
				name = fmt.Sprintf("park and abort %v", m.held[i].key)
				m.parkAndAbort(i)
			case c%4 == 1:
				m.pinFrame(k)
				name = fmt.Sprintf("pin %v", k)
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
// read-around allowed or not), commit, abort, copyOut, an abort under a
// parked reader and pinned copy-outs.
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
		m := newCacheModel(t, 1+int(data[0]&1), 2+int(data[0]>>1)%5)
		m.run(data[1:])
	})
}
