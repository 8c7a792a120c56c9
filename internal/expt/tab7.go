package expt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/simfs"
	"repro/internal/vtime"
)

// Table 7 (extension): checkpoint shipping over live multifiles — the
// chunk-commit watermark subsystem (Options.Watermarks, internal/core
// watermark.go + tail.go, internal/serve tail.go) under its intended
// workload. The paper's multifiles are written, closed, and only then
// read; streaming consumers (checkpoint shippers, in-transit analysis,
// live trace dashboards) cannot wait for Close. Watermarks give them a
// torn-record-free frontier: every Flush publishes a durable per-rank
// commit record after the data it covers is durable, and tailing readers
// never observe bytes past it.
//
// Two phases, both asserted in-run (panic on violation):
//
//   - stream: N writers append CRC-framed records to a live multifile on
//     one simulated machine, flushing every tab7Flush records and
//     computing for tab7Step sim-seconds between batches. M serve-backed
//     readers (Handles of one serve.NewTail server, opened once) follow
//     the writers mid-write, polling every tab7Poll sim-seconds, parse
//     complete frames, and ship them into a second multifile on another
//     machine through per-writer key streams (KeyWriter). Asserted: every frame parses (magic, seq
//     order, CRC), nothing is ever read past a watermark the writer did
//     not publish, the reader lag never exceeds tab7LagBound flush
//     batches, and the shipped archive is byte-identical to the source
//     payloads.
//
//   - crash: tab7Trials independent trials on a volatile simfs. Writers
//     stream framed records with a write/sync failure injected at a
//     random operation count (arming only after ParOpen, so every trial
//     is a mid-stream writer crash), then the machine loses all unsynced
//     state (fs.Crash); a third of the trials additionally tear one slot
//     of a commit record in the watermark sidecar. Asserted: the
//     committed bytes of every rank decode to whole frames (zero torn
//     records), the committed total is one the writer actually attempted
//     to commit (or zero), Repair recovers the remains, Verify accepts
//     them, and the repaired multifile reads back byte-identically to the
//     committed prefix.
const (
	tab7Writers  = 64 // streaming phase: writer tasks
	tab7Readers  = 8  // streaming phase: serve-backed shipper tasks
	tab7Records  = 24 // framed records per writer
	tab7Flush    = 4  // records per flush batch (the watermark interval)
	tab7Chunk    = int64(16) << 10
	tab7FSBlk    = int64(1) << 10
	tab7Step     = 1.0  // sim-seconds of compute between flush batches
	tab7Poll     = 0.25 // reader poll interval, sim-seconds
	tab7LagBound = 4    // max tolerated reader lag, in flush batches

	tab7Trials     = 130 // crash phase: independent injected-crash trials
	tab7CrashRanks = 3
	tab7CrashChunk = int64(4096) // one FS-block-aligned block per rank
	tab7CrashFSBlk = int64(256)
)

// Frame format of one shipped record: magic, writer rank, sequence
// number, payload length (u32 LE each), payload, CRC-32 (IEEE) of the
// payload. Writers flush only at frame boundaries, so a committed
// watermark must always parse into whole frames — a torn frame anywhere
// is a commit-ordering bug.
const (
	tab7FrameMagic = 0x53494F4E // "SION"
	tab7FrameHdr   = 16
)

// tab7Payload is the deterministic payload of record (salt, w, seq);
// salt 0 is the streaming phase, salt 1+trial the crash trials.
func tab7Payload(salt, w, seq int) []byte {
	x := uint64(salt)*0x9E3779B97F4A7C15 + uint64(w)*2654435761 + uint64(seq) + 1
	n := 64 + int(x*6364136223846793005%193)
	p := make([]byte, n)
	for i := range p {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 56)
	}
	return p
}

func tab7Frame(salt, w, seq int) []byte {
	payload := tab7Payload(salt, w, seq)
	fr := make([]byte, tab7FrameHdr+len(payload)+4)
	binary.LittleEndian.PutUint32(fr[0:], tab7FrameMagic)
	binary.LittleEndian.PutUint32(fr[4:], uint32(w))
	binary.LittleEndian.PutUint32(fr[8:], uint32(seq))
	binary.LittleEndian.PutUint32(fr[12:], uint32(len(payload)))
	copy(fr[tab7FrameHdr:], payload)
	binary.LittleEndian.PutUint32(fr[tab7FrameHdr+len(payload):], crc32.ChecksumIEEE(payload))
	return fr
}

// tab7Stream is one reader's state for one followed writer.
type tab7Stream struct {
	w       int
	sess    *serve.Handle
	pending []byte // received bytes not yet forming a whole frame
	nextSeq int
	got     int64 // total bytes delivered by the session
	done    bool
}

// parse consumes whole frames from the pending buffer, verifying magic,
// writer id, sequence order, and CRC, and ships each payload under the
// writer's key.
func (ts *tab7Stream) parse(salt int, kw *sion.KeyWriter) {
	for len(ts.pending) >= tab7FrameHdr {
		magic := binary.LittleEndian.Uint32(ts.pending[0:])
		w := binary.LittleEndian.Uint32(ts.pending[4:])
		seq := binary.LittleEndian.Uint32(ts.pending[8:])
		plen := binary.LittleEndian.Uint32(ts.pending[12:])
		if magic != tab7FrameMagic || int(w) != ts.w || int(seq) != ts.nextSeq {
			panic(fmt.Sprintf("tab7: writer %d: bad frame header (magic %#x, w %d, seq %d, want seq %d)",
				ts.w, magic, w, seq, ts.nextSeq))
		}
		total := tab7FrameHdr + int(plen) + 4
		if len(ts.pending) < total {
			return // frame continues past the watermark; finish it next poll
		}
		payload := ts.pending[tab7FrameHdr : tab7FrameHdr+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(ts.pending[tab7FrameHdr+int(plen):]) {
			panic(fmt.Sprintf("tab7: writer %d seq %d: CRC mismatch (torn record)", ts.w, seq))
		}
		if !bytes.Equal(payload, tab7Payload(salt, ts.w, int(seq))) {
			panic(fmt.Sprintf("tab7: writer %d seq %d: payload differs from source", ts.w, seq))
		}
		if kw != nil {
			if err := kw.WriteKey(uint64(ts.w), payload); err != nil {
				panic(fmt.Sprintf("tab7: shipping writer %d seq %d: %v", ts.w, seq, err))
			}
		}
		ts.pending = ts.pending[total:]
		ts.nextSeq++
	}
}

// tab7StreamPhase runs the live shipping scenario: nw writers and nr
// serve-backed readers on one virtual-time engine, source machine fsA,
// archive machine fsB. It returns the maximum observed reader lag in
// flush batches, the shipped byte total, and the simulated end time.
func tab7StreamPhase(nw, nr, records int) (maxLag int, shipped int64, simEnd float64) {
	// Both are tab3's machine (Jugene, 64 KiB blocks); the in-file layout
	// uses the smaller tab7FSBlk alignment so the frontier moves through
	// many cache blocks even at test scale.
	fsA := simfs.New(renamed(tab3Profile(), "jugene-64k-tab7src"))
	fsB := simfs.New(renamed(tab3Profile(), "jugene-64k-tab7dst"))

	// Shared cross-rank state. The vtime engine runs one proc at a time
	// (context switches are channel handoffs), so plain variables are safe.
	flushTotals := make([][]int64, nw) // committed totals per writer, per flush
	var srv *serve.Server
	lagMax := 0

	e := vtime.NewEngine()
	mpi.RunSim(e, nw+nr, mpi.DefaultCost, func(c *mpi.Comm) {
		if c.Rank() < nw {
			wc := c.Split(0, c.Rank())
			tab7Writer(c, wc, fsA.View(c.Rank(), c.Proc()), records, flushTotals)
		} else {
			rc := c.Split(1, c.Rank()-nw)
			tab7Reader(c, rc, fsA, fsB, nw, nr, records, flushTotals, &srv, &lagMax)
		}
		if t := c.Now(); t > simEnd {
			simEnd = t
		}
	})

	// Serial read-back of the archive: every shipped record stream must be
	// byte-identical to the source payloads.
	vB := fsB.View(0, nil)
	for rr := 0; rr < nr; rr++ {
		f, err := sion.OpenRank(vB, "ship.sion", rr)
		if err != nil {
			panic(fmt.Sprintf("tab7: opening archive rank %d: %v", rr, err))
		}
		kr, err := sion.NewKeyReaderFrom(f)
		if err != nil {
			panic(fmt.Sprintf("tab7: indexing archive rank %d: %v", rr, err))
		}
		for w := rr * nw / nr; w < (rr+1)*nw/nr; w++ {
			got, err := kr.ReadKey(uint64(w))
			if err != nil {
				panic(fmt.Sprintf("tab7: archive read of writer %d: %v", w, err))
			}
			var want []byte
			for seq := 1; seq <= records; seq++ {
				want = append(want, tab7Payload(0, w, seq)...)
			}
			if !bytes.Equal(got, want) {
				panic(fmt.Sprintf("tab7: archive of writer %d differs from source (%d bytes, want %d)",
					w, len(got), len(want)))
			}
			shipped += int64(len(got))
		}
		f.Close()
	}
	return lagMax, shipped, simEnd
}

// tab7Writer streams framed records into the live multifile, flushing
// (and so publishing a watermark) every tab7Flush records, with
// tab7Step sim-seconds of compute between batches.
func tab7Writer(c, wc *mpi.Comm, v fsio.FileSystem, records int, flushTotals [][]int64) {
	w := c.Rank()
	f, err := sion.ParOpen(wc, v, "live.sion", sion.WriteMode, &sion.Options{
		ChunkSize: tab7Chunk, FSBlockSize: tab7FSBlk, Watermarks: true,
	})
	if err != nil {
		panic(fmt.Sprintf("tab7: writer %d: ParOpen: %v", w, err))
	}
	var total int64
	for seq := 1; seq <= records; seq++ {
		fr := tab7Frame(0, w, seq)
		if _, err := f.Write(fr); err != nil {
			panic(fmt.Sprintf("tab7: writer %d seq %d: %v", w, seq, err))
		}
		total += int64(len(fr))
		if seq%tab7Flush == 0 || seq == records {
			if err := f.Flush(); err != nil {
				panic(fmt.Sprintf("tab7: writer %d: Flush: %v", w, err))
			}
			flushTotals[w] = append(flushTotals[w], total)
			c.Proc().AdvanceTo(c.Now() + tab7Step)
		}
	}
	if err := f.Close(); err != nil {
		panic(fmt.Sprintf("tab7: writer %d: Close: %v", w, err))
	}
}

// tab7Reader follows a contiguous band of writers through one shared
// tail server, ships complete frames into the archive multifile, and
// tracks the worst flushed-but-undelivered lag it ever observes.
func tab7Reader(c, rc *mpi.Comm, fsA, fsB *simfs.FS, nw, nr, records int,
	flushTotals [][]int64, srvp **serve.Server, lagMax *int) {
	rr := rc.Rank()
	if rr == 0 {
		// The live multifile appears when the writers' ParOpen completes;
		// retry under a bounded budget whose backoff is the poll cadence in
		// virtual time. Any open error counts as "not servable yet" here —
		// mid-ParOpen the reader can race file creation and see either a
		// not-exist or a truncated header.
		b := resil.Budget{
			MaxAttempts: 1 << 16,
			Sleep:       func(time.Duration) { c.Proc().AdvanceTo(c.Now() + tab7Poll) },
		}
		err := resil.DoWhile(b, nil, func(error) bool { return true }, func() error {
			s, err := serve.NewTail(fsA.View(nw, nil), "live.sion", &serve.Config{CacheBytes: 1 << 20})
			if err == nil {
				*srvp = s
			}
			return err
		})
		if err != nil {
			panic(fmt.Sprintf("tab7: live multifile never appeared: %v", err))
		}
	}
	for *srvp == nil {
		c.Proc().AdvanceTo(c.Now() + tab7Poll)
	}
	srv := *srvp

	sf, err := sion.ParOpen(rc, fsB.View(c.Rank(), c.Proc()), "ship.sion", sion.WriteMode, &sion.Options{
		ChunkSize: tab7Chunk, FSBlockSize: tab7FSBlk,
	})
	if err != nil {
		panic(fmt.Sprintf("tab7: reader %d: archive ParOpen: %v", rr, err))
	}
	kw, err := sion.NewKeyWriter(sf)
	if err != nil {
		panic(fmt.Sprintf("tab7: reader %d: %v", rr, err))
	}

	var streams []*tab7Stream
	for w := rr * nw / nr; w < (rr+1)*nw/nr; w++ {
		sess, err := srv.Open(w)
		if err != nil {
			panic(fmt.Sprintf("tab7: reader %d: Open(%d): %v", rr, w, err))
		}
		streams = append(streams, &tab7Stream{w: w, sess: sess, nextSeq: 1})
	}

	live := len(streams)
	buf := make([]byte, 4096)
	for live > 0 {
		for _, ts := range streams {
			if ts.done {
				continue
			}
			for {
				n, rerr := ts.sess.Read(buf)
				if n > 0 {
					ts.pending = append(ts.pending, buf[:n]...)
					ts.got += int64(n)
					ts.parse(0, kw)
				}
				if rerr == sion.ErrAgain {
					break
				}
				if rerr == io.EOF {
					if len(ts.pending) != 0 {
						panic(fmt.Sprintf("tab7: writer %d: %d dangling bytes at EOF (torn record)",
							ts.w, len(ts.pending)))
					}
					if ts.nextSeq != records+1 {
						panic(fmt.Sprintf("tab7: writer %d: drained at seq %d, want %d records",
							ts.w, ts.nextSeq-1, records))
					}
					ts.done = true
					live--
					break
				}
				if rerr != nil {
					panic(fmt.Sprintf("tab7: reader %d following writer %d: %v", rr, ts.w, rerr))
				}
			}
			if !ts.done {
				// Drained to the last watermark this server has seen; any
				// flush the writer has published beyond ts.got is lag.
				lag := 0
				for _, tot := range flushTotals[ts.w] {
					if tot > ts.got {
						lag++
					}
				}
				if lag > *lagMax {
					*lagMax = lag
				}
				if lag > tab7LagBound {
					panic(fmt.Sprintf("tab7: reader %d lags writer %d by %d flush batches (bound %d)",
						rr, ts.w, lag, tab7LagBound))
				}
			}
		}
		if live > 0 {
			c.Proc().AdvanceTo(c.Now() + tab7Poll)
			if _, err := srv.Poll(); err != nil {
				panic(fmt.Sprintf("tab7: reader %d: Poll: %v", rr, err))
			}
		}
	}
	if err := sf.Close(); err != nil {
		panic(fmt.Sprintf("tab7: reader %d: archive Close: %v", rr, err))
	}
	rc.Barrier()
	if rr == 0 {
		if err := srv.Close(); err != nil {
			panic(fmt.Sprintf("tab7: closing tail server: %v", err))
		}
	}
}

// tab7CrashPhase runs the injected-crash trials. Returns the number of
// verified trials, how many had a sidecar commit record additionally
// torn, how many ranks across all trials recovered to less than their
// last attempted commit (i.e. the crash actually cost them data), and
// the total committed bytes that survived.
func tab7CrashPhase(trials int) (verified, torn, lostRanks int, recovered int64) {
	const nw = tab7CrashRanks
	for trial := 0; trial < trials; trial++ {
		rng := &tab6Rand{x: 0x7AB7 + uint64(trial+1)*0x9E3779B97F4A7C15}
		salt := 1 + trial

		// Pre-generate each rank's frames so the expected committed prefix
		// can be regenerated after the crash. Everything fits in one block
		// (tab7CrashChunk) so a torn sidecar slot always falls back to the
		// partner slot's earlier frame-aligned commit.
		frames := make([][][]byte, nw)
		for w := 0; w < nw; w++ {
			nrec := 4 + int(rng.next()%5)
			for seq := 1; seq <= nrec; seq++ {
				frames[w] = append(frames[w], tab7Frame(salt, w, seq))
			}
		}
		inject := int64(3 + rng.next()%90)

		fs := simfs.New(simfs.Jugene())
		fs.SetVolatileWrites(true)
		attempts := make([][]int64, nw)
		e := vtime.NewEngine()
		mpi.RunSim(e, nw, mpi.DefaultCost, func(c *mpi.Comm) {
			r := c.Rank()
			f, err := sion.ParOpen(c, fs.View(r, c.Proc()), "c.sion", sion.WriteMode, &sion.Options{
				ChunkSize: tab7CrashChunk, FSBlockSize: tab7CrashFSBlk, Watermarks: true,
			})
			if err != nil {
				panic(fmt.Sprintf("tab7: trial %d rank %d: ParOpen: %v", trial, r, err))
			}
			// Arm the failure only after every rank holds an open handle, so
			// each trial is a mid-stream crash, not a failed open.
			c.Barrier()
			if r == 0 {
				fs.FailWritesAfter(inject)
			}
			c.Barrier()
			var total int64
			for _, fr := range frames[r] {
				if _, err := f.Write(fr); err != nil {
					return // died mid-write
				}
				total += int64(len(fr))
				attempts[r] = append(attempts[r], total)
				if err := f.Flush(); err != nil {
					return // died mid-commit
				}
			}
			// Crash before Close: no trailer, no metablock 2.
		})
		fs.Crash() // lose every unsynced write
		fs.SetVolatileWrites(false)

		v := fs.View(0, nil)
		if trial%3 == 0 {
			// Additionally tear one slot of one rank's commit record in the
			// watermark sidecar (32-byte header, then a 64-byte slot pair per
			// (rank, block); see internal/core watermark.go).
			wname := sion.PhysicalNames("c.sion", 1)[0] + ".wmk"
			cr, slot := int(rng.next())%nw, int64(rng.next())%2
			wfh, err := v.OpenRW(wname)
			if err != nil {
				panic(fmt.Sprintf("tab7: trial %d: opening sidecar: %v", trial, err))
			}
			if _, err := wfh.WriteAt([]byte{0xde, 0xad}, int64(32+cr*64)+slot*32+10); err != nil {
				panic(fmt.Sprintf("tab7: trial %d: tearing sidecar: %v", trial, err))
			}
			wfh.Close()
			torn++
		}

		for r := 0; r < nw; r++ {
			tr, err := sion.Follow(v, "c.sion", r)
			if err != nil {
				panic(fmt.Sprintf("tab7: trial %d rank %d: Follow: %v", trial, r, err))
			}
			committed := tr.Committed()
			valid := committed == 0
			for _, a := range attempts[r] {
				valid = valid || committed == a
			}
			if !valid {
				panic(fmt.Sprintf("tab7: trial %d rank %d: committed %d not among attempted commits %v",
					trial, r, committed, attempts[r]))
			}
			got := make([]byte, committed)
			for off := 0; off < len(got); {
				m, err := tr.Read(got[off:])
				if err != nil {
					panic(fmt.Sprintf("tab7: trial %d rank %d: reading committed bytes: %v", trial, r, err))
				}
				off += m
			}
			tr.Close()
			var want []byte
			for _, fr := range frames[r] {
				want = append(want, fr...)
			}
			if !bytes.Equal(got, want[:committed]) {
				panic(fmt.Sprintf("tab7: trial %d rank %d: committed bytes differ from source", trial, r))
			}
			// Zero torn records: the committed prefix must parse into whole
			// frames (parse panics on any malformed or truncated frame).
			ck := &tab7Stream{w: r, pending: got, nextSeq: 1}
			ck.parse(salt, nil)
			if len(ck.pending) != 0 {
				panic(fmt.Sprintf("tab7: trial %d rank %d: %d committed bytes beyond the last whole frame",
					trial, r, len(ck.pending)))
			}
			if len(attempts[r]) > 0 && committed < attempts[r][len(attempts[r])-1] {
				lostRanks++
			}
			recovered += committed
		}

		if _, err := sion.Repair(v, "c.sion"); err != nil {
			panic(fmt.Sprintf("tab7: trial %d: Repair: %v", trial, err))
		}
		if err := sion.Verify(v, "c.sion"); err != nil {
			panic(fmt.Sprintf("tab7: trial %d: Verify after Repair: %v", trial, err))
		}
		for r := 0; r < nw; r++ {
			f, err := sion.OpenRank(v, "c.sion", r)
			if err != nil {
				panic(fmt.Sprintf("tab7: trial %d rank %d: OpenRank after Repair: %v", trial, r, err))
			}
			buf := make([]byte, f.LogicalSize())
			if len(buf) > 0 {
				if _, err := f.ReadLogicalAt(buf, 0); err != nil {
					panic(fmt.Sprintf("tab7: trial %d rank %d: reading repaired stream: %v", trial, r, err))
				}
			}
			var want []byte
			for _, fr := range frames[r] {
				want = append(want, fr...)
			}
			if !bytes.Equal(buf, want[:len(buf)]) {
				panic(fmt.Sprintf("tab7: trial %d rank %d: repaired bytes differ from source", trial, r))
			}
			f.Close()
		}
		verified++
	}
	return verified, torn, lostRanks, recovered
}

// Table7 regenerates the streaming table: the live checkpoint-shipping
// scenario (N writers, M serve-backed tailing shippers, bounded lag,
// byte-identical archive) and the crash sweep (≥100 injected writer
// crashes plus torn sidecar records, zero torn records recovered). All
// bounds are asserted in-run; the rows report what was observed.
func Table7(scale int) *Result {
	res := &Result{
		Name:   "tab7",
		Title:  "Table 7 (ext): live tailing over chunk-commit watermarks — streaming shipment and crash sweep, jugene",
		Header: []string{"phase", "writers", "readers", "trials", "bytes", "max lag", "torn", "verified"},
	}
	nw := scaleDown(tab7Writers, scale, 8)
	nr := scaleDown(tab7Readers, scale, 2)

	maxLag, shipped, simEnd := tab7StreamPhase(nw, nr, tab7Records)
	res.Rows = append(res.Rows, []string{
		"stream", kfmt(nw), kfmt(nr), "1",
		fmt.Sprintf("%d", shipped),
		fmt.Sprintf("%d/%d fl", maxLag, tab7LagBound),
		"0", "identical",
	})

	verified, torn, lostRanks, recovered := tab7CrashPhase(tab7Trials)
	res.Rows = append(res.Rows, []string{
		"crash", kfmt(tab7CrashRanks), "-", fmt.Sprintf("%d", tab7Trials),
		fmt.Sprintf("%d", recovered),
		"-",
		fmt.Sprintf("%d torn cells", torn),
		fmt.Sprintf("%d/%d", verified, tab7Trials),
	})

	res.Notes = append(res.Notes,
		fmt.Sprintf("stream: %d flush batches/writer (%d records, watermark every %d), readers poll each %.2fs of simulated time; run ends at t=%.1fs",
			(tab7Records+tab7Flush-1)/tab7Flush, tab7Records, tab7Flush, tab7Poll, simEnd),
		"commit ordering: record data is durable (Sync) before its watermark cell is written and synced, so a tailing reader can never observe a torn record",
		fmt.Sprintf("crash: write/sync failure injected mid-stream, then total loss of unsynced state; %d/%d trials also tore one sidecar commit slot (recovered via the partner slot)", torn, tab7Trials),
		fmt.Sprintf("%d writer-ranks lost flushed-but-uncommitted or unflushed bytes to the crash; every survivor decoded to whole frames and passed Repair+Verify+read-back", lostRanks),
	)
	return res
}
