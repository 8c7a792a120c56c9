package sion

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fsio"
	"repro/internal/mpi"
)

// Mapped open: reopening a multifile with a task count different from the
// one that wrote it (SIONlib's sion_paropen_mapped). The paper's model has
// every task read back its own chunks, but restart and post-processing
// workloads routinely rescale — a checkpoint written by N tasks is reopened
// by M readers, each taking over a set of original writer ranks (the same
// reader/worker decoupling CkIO, arXiv:2411.18593, argues for in
// over-decomposed systems). ParOpenMapped gives each of the M readers a
// full read handle per owned writer rank; the multifile layout makes this
// cheap because every chunk address is a pure function of the metadata, so
// no data moves when the task count changes. ParOpen's read mode is the
// special case M = N with every reader owning its own rank.
//
// The metadata exchange costs each reader O(owned), not O(N): rank 0 reads
// file 0's header, gathers every reader's claim, validates ownership, and
// scatters each reader a plan (planReaders). Each physical file is parsed
// once, by the lowest-numbered reader that needs it, which sends every
// reader needing the file the records of the ranks it owns there.
//
// Two data paths follow the exchange:
//
//   - Direct (CollectorGroup 0/1): a reader opens each physical file that
//     holds one of its ranks once, shares that handle among its rank views,
//     and serves reads on demand — with one read-ahead stage per owned rank
//     (buffer.go, pool-backed) when Options.BufferSize is set.
//   - Collective (CollectorGroup > 1 or CollectorAuto): groups of
//     consecutive reader ranks elect their first member as collector; only
//     the ⌈M/group⌉ collectors open physical files, and because ownership
//     spans are contiguous chunk runs, a collector fetches one whole span
//     per (file, block) — a few large reads — and scatters each rank's
//     logical stream to its member. Members never touch the file; their
//     handles serve reads from memory. This prefetches complete streams at
//     open, so it is meant for restart-scale volumes, and a failure
//     anywhere in a group fails the whole group's open.
//
// SerialFile and OpenRank are the no-communicator special cases of the
// same machinery (mappedLocal): the serial global view is "one process
// owns every rank" (read views from openMappedLocal, write views over the
// segments Create makes), OpenRank is "one reader owns one rank".

// Message tags for the mapped-open exchanges.
const (
	tagMappedMeta = 4301 // parser → reader: per-file geometry records
	tagMappedReq  = 4302 // member → collector: owned-rank region requests
	tagMappedData = 4303 // collector → member: prefetched streams
)

// Claim kinds: the first word of what a reader sends rank 0, followed by
// the writer ranks it owns (ascending).
const (
	claimBalanced = iota // owned == nil: rank 0 applies BalancedMapping
	claimListed          // ParOpenMapped with an explicit owned set
	claimOwnRank         // ParOpen: the reader's own rank, and N must equal M
)

// planHdr is the fixed head of a reader plan: status, N, files, FS block,
// flags, collector group, owned count, needed-file count.
const planHdr = 8

// Plan statuses, the same on every reader of one open.
const (
	planNoFile        = 1 + iota // file 0 missing
	planBadHeader                // file 0's metablock 1 unparsable
	planCountMismatch            // ParOpen on M ≠ N tasks
	planBadOwnership             // a rank outside 0..N-1, or owned twice
)

// MappedFile is an M-task read view of a multifile written by N tasks.
// Each reader owns a disjoint set of original writer ranks and accesses
// them through per-rank handles (Rank) with full Read/Seek/ReadLogicalAt/
// EOF semantics. Distinct rank handles of one MappedFile may be used
// concurrently (each has its own cursor and stage, and the shared physical
// file is only accessed through offset reads); a single rank handle is not
// safe for concurrent use, like any *File.
type MappedFile struct {
	fsys fsio.FileSystem
	comm *mpi.Comm
	name string
	op   string // the opening call, for errors: ParOpen or ParOpenMapped

	ntasks int // N: writer tasks recorded in the multifile
	nfiles int
	fsblk  int64

	owned   []int       // original writer ranks owned by this reader, ascending
	handles []*File     // handles[i] serves owned[i]
	fhs     []fsio.File // direct mode: one shared handle per physical file

	collGroup int
	collLead  bool
	closed    bool
}

// BalancedMapping returns the writer ranks owned by reader `reader` of
// `nreaders` under the auto-computed balanced mapping ParOpenMapped uses
// when owned == nil: contiguous spans chosen so that reader r owns exactly
// {g : ContiguousMap(g, ntasks, nreaders) == r}. With nreaders > ntasks
// the surplus readers own nothing.
func BalancedMapping(reader, nreaders, ntasks int) []int {
	if reader < 0 || nreaders <= 0 || reader >= nreaders || ntasks <= 0 {
		return nil
	}
	lo := (reader*ntasks + nreaders - 1) / nreaders
	hi := ((reader+1)*ntasks + nreaders - 1) / nreaders
	out := make([]int, 0, hi-lo)
	for g := lo; g < hi; g++ {
		out = append(out, g)
	}
	return out
}

// ParOpenMapped collectively reopens a multifile written by N tasks on an
// M-task communicator (sion_paropen_mapped). owned lists the original
// writer ranks this reader takes over (nil = the balanced contiguous
// partition of BalancedMapping); across the communicator the sets must be
// disjoint, but they need not cover all N ranks. Every task of comm must
// call it with the same name, mode, and options. Only ReadMode is
// supported: rescaling a multifile's writer side is a rewrite (Defrag),
// not a reopen.
//
// Neither open nor Close performs a barrier beyond the metadata exchange:
// in direct mode a reader whose metadata fails errors alone; in collective
// mode a failure fails the collector's whole group (whose members would
// otherwise hold handles served by nobody).
func ParOpenMapped(comm *mpi.Comm, fsys fsio.FileSystem, name string, mode Mode, owned []int, opts *Options) (*MappedFile, error) {
	if mode != ReadMode {
		return nil, fmt.Errorf("sion: ParOpenMapped %s: unsupported mode %v (mapped open reads an existing multifile)", name, mode)
	}
	claim := []int64{claimBalanced}
	if owned != nil {
		claim[0] = claimListed
		for _, g := range owned {
			claim = append(claim, int64(g))
		}
		slices.Sort(claim[1:])
	}
	return openMapped(comm, fsys, name, claim, opts)
}

// openMapped is the collective open behind ParOpenMapped and ParOpen's read
// mode; claim is this reader's claim (see the claim kinds).
func openMapped(comm *mpi.Comm, fsys fsio.FileSystem, name string, claim []int64, opts *Options) (*MappedFile, error) {
	op := "ParOpenMapped"
	if claim[0] == claimOwnRank {
		op = "ParOpen"
	}
	caps := fsio.CapabilitiesOf(fsys)
	o, err := opts.withDefaults(comm.Size(), caps)
	if err != nil {
		return nil, err
	}

	// Rank 0 reads file 0's header (the claims arrive meanwhile), then
	// plans every reader's share of the exchange.
	var h *header
	var status int64
	if comm.Rank() == 0 {
		var fh fsio.File
		if fh, err = fsys.Open(fileName(name, 0)); err != nil {
			status = planNoFile
		} else {
			if h, err = parseHeader(fh); err != nil {
				status = planBadHeader
			}
			fh.Close()
		}
	}
	claims := comm.GatherInt64Slice(0, claim)
	var plans [][]int64
	if comm.Rank() == 0 {
		plans = planReaders(h, status, claims, o.CollectorGroup)
	}
	plan := comm.ScatterInt64Slice(0, plans)
	switch plan[0] {
	case 0:
	case planCountMismatch:
		return nil, fmt.Errorf("sion: ParOpen %s: the multifile was written by %d tasks but is opened by %d (ParOpenMapped reads it on another task count)", name, plan[1], comm.Size())
	case planBadOwnership:
		return nil, fmt.Errorf("sion: %s %s: invalid ownership (a writer rank outside 0..%d, or owned by two readers)", op, name, plan[1]-1)
	default: // err is rank 0's own cause
		return nil, withCause(fmt.Errorf("sion: %s %s failed (status %d: missing file or corrupt header)", op, name, plan[0]), err)
	}
	ntasks, nfiles, fsblk := int(plan[1]), int(plan[2]), plan[3]
	hdrs, group := uint64(plan[4])&flagChunkHeaders != 0, int(plan[5])
	mine := plan[planHdr : planHdr+plan[6]]
	parsers := plan[planHdr+plan[6] : planHdr+plan[6]+plan[7]]

	// Parse the files this reader is the lowest reader of, and fan the
	// records out (sends are eager, so all parsers send before anyone
	// blocks in Recv below). cause keeps this reader's own first failure,
	// which only it can return: the others see a status.
	var cause error
	for sec := plan[planHdr+plan[6]+plan[7]:]; len(sec) > 0; {
		k, n := int(sec[0]), int(sec[1])
		if lerr := sendRankRecords(comm, fsys, name, k, ntasks, sec[2:2+n]); lerr != nil && cause == nil {
			cause = fmt.Errorf("sion: %s %s: parsing physical file %d: %w", op, name, k, lerr)
		}
		sec = sec[2+n:]
	}

	// Collect one message per needed file; drain every expected message
	// even after a failure so no stray frame outlives the open. In direct
	// mode each file is opened as its records arrive.
	mf := &MappedFile{
		fsys: fsys, comm: comm, name: name, op: op,
		ntasks: ntasks, nfiles: nfiles, fsblk: fsblk,
		owned: make([]int, len(mine)), handles: make([]*File, len(mine)),
	}
	for i, g := range mine {
		mf.owned[i] = int(g)
	}
	metaFailed := false
	for _, p := range parsers {
		vals := decodeInt64s(comm.Recv(int(p), tagMappedMeta))
		recs, derr := decodeMappedMeta(vals, ntasks, nfiles)
		if derr != nil || metaFailed {
			metaFailed = true
			continue
		}
		k := int(vals[1])
		var fh fsio.File
		if group <= 1 {
			var oerr error
			if fh, oerr = fsys.Open(fileName(name, k)); oerr != nil {
				cause = fmt.Errorf("sion: %s %s: opening physical file %d: %w", op, name, k, oerr)
				metaFailed = true
				continue
			}
			mf.fhs = append(mf.fhs, fh)
		}
		for _, rec := range recs {
			i, ok := slices.BinarySearch(mf.owned, rec.global)
			if !ok || mf.handles[i] != nil {
				metaFailed = true // a rank this reader does not own, or twice
				continue
			}
			mf.handles[i] = &File{
				fsys: fsys, fh: fh, fhShared: true, name: name, mode: ReadMode,
				local: rec.local, global: rec.global,
				filenum: k, nfiles: nfiles, fsblk: fsblk,
				requested: rec.chunkSize, chunkHdrs: hdrs,
				geo: geometry{
					fsblk: fsblk, start: rec.start, stride: rec.stride,
					aligned: []int64{rec.aligned}, prefix: []int64{rec.prefix},
					headers: hdrs,
				},
				readBytes:  rec.blockBytes,
				directRead: DirectReadBytes(caps, fsblk),
			}
		}
	}
	metaFailed = metaFailed || slices.Contains(mf.handles, nil) // a parser omitted a rank we own

	if group > 1 {
		// The collective exchange runs even for a reader whose metadata
		// failed: its group must learn about the failure, or the collector
		// would block on a request that never comes.
		if err := mf.collectiveFetch(group, metaFailed); err != nil {
			return nil, withCause(err, cause)
		}
		return mf, nil
	}
	if metaFailed {
		mf.Close()
		if cause != nil {
			return nil, cause
		}
		return nil, fmt.Errorf("sion: %s %s: metadata exchange failed (corrupt or missing segment)", op, name)
	}
	for _, h := range mf.handles {
		h.initStaging(o.BufferSize)
	}
	return mf, nil
}

// planReaders is rank 0's half of the exchange: from file 0's header h
// (status ≠ 0 when it could not be read) and every reader's claim, it
// resolves ownership and returns each reader's plan:
//
//	[status, N, files, fsblk, flags, group, nown, nneed,
//	 owned ranks…, the parser of each needed file…,
//	 then per file the reader parses: k, len, and per reader needing the
//	 file (ascending): reader, count, the local ranks it owns there…]
//
// File k's parser is the lowest reader that needs it. A reader that parses
// nothing gets O(owned) words, whatever N is; a parser's sections are
// O(tasks in its files). A failure is one header-only plan for everyone.
func planReaders(h *header, status int64, claims [][]int64, collectorGroup int) [][]int64 {
	m, n := len(claims), 0
	if h != nil {
		n = int(h.NTasksGlobal)
	}
	plans := make([][]int64, m)
	fail := func(status int64) [][]int64 {
		hdr := []int64{status, int64(n), 0, 0, 0, 0, 0, 0}
		for r := range plans {
			plans[r] = hdr
		}
		return plans
	}
	if status != 0 {
		return fail(status)
	}
	// CollectorAuto sizing: the write-side heuristic over the M readers,
	// with file 0's average aligned chunk as the representative, so the
	// resolved group is identical on every reader.
	avg := newGeometry(h).stride / int64(h.NTasksLocal)
	group := resolveCollectorGroup(collectorGroup, m, avg*int64(m), h.FSBlockSize)
	nfiles := int(h.NFiles)
	taken := make([]bool, n)
	// Per file: its parser and its latest reader (both +1, 0 = none yet),
	// the section under construction, and where that reader's count is.
	parser, last, at := make([]int, nfiles), make([]int, nfiles), make([]int, nfiles)
	secs := make([][]int64, nfiles)
	for r, cl := range claims {
		own := cl[1:]
		switch cl[0] {
		case claimBalanced:
			own = nil
			for _, g := range BalancedMapping(r, m, n) {
				own = append(own, int64(g))
			}
		case claimOwnRank:
			if m != n {
				return fail(planCountMismatch)
			}
		}
		plan := append(make([]int64, 0, planHdr+2*len(own)),
			0, int64(n), int64(nfiles), h.FSBlockSize, int64(h.Flags), int64(group), int64(len(own)), 0)
		plan = append(plan, own...)
		for _, g := range own {
			if g < 0 || g >= int64(n) || taken[g] {
				return fail(planBadOwnership)
			}
			taken[g] = true
			k := int(h.Mapping[g].File)
			if last[k] != r+1 {
				if parser[k] == 0 {
					parser[k] = r + 1
				}
				last[k] = r + 1
				plan = append(plan, int64(parser[k]-1))
				plan[7]++
				secs[k] = append(secs[k], int64(r), 0)
				at[k] = len(secs[k]) - 1
			}
			secs[k] = append(secs[k], int64(h.Mapping[g].LocalRank))
			secs[k][at[k]]++
		}
		plans[r] = plan
	}
	for k, sec := range secs {
		if p := parser[k] - 1; p >= 0 {
			plans[p] = append(append(plans[p], int64(k), int64(len(sec))), sec...)
		}
	}
	return plans
}

// sendRankRecords parses physical file k and, in one pass over sec (a
// plan section: per reader, reader, count, local ranks), sends each reader
// the records of its ranks in the file. It returns the parse error, which
// the readers see only as a failure status.
func sendRankRecords(comm *mpi.Comm, fsys fsio.FileSystem, name string, k, ntasks int, sec []int64) error {
	pf, lerr := loadSegment(fsys, name, k)
	if lerr == nil && int(pf.h.NTasksGlobal) != ntasks {
		lerr = fmt.Errorf("%w: segment %d disagrees on task count", ErrCorrupt, k)
	}
	for len(sec) > 0 {
		r, lis := int(sec[0]), sec[2:2+sec[1]]
		sec = sec[2+sec[1]:]
		comm.Send(r, tagMappedMeta, encodeInt64s(encodeMappedMeta(pf, lerr, k, lis)))
	}
	if pf != nil {
		pf.fh.Close()
	}
	return lerr
}

// mappedRankMeta is one writer rank's geometry record in a parser→reader
// metadata message.
type mappedRankMeta struct {
	global, local int
	chunkSize     int64
	start, stride int64
	aligned       int64
	prefix        int64
	blockBytes    []int64
}

// encodeMappedMeta builds the metadata message the parser of file k sends
// one reader: [status, filenum, nrec, then per local rank li in lis: g, li,
// chunkSize, start, stride, aligned, prefix, nblocks, blockBytes...]. A
// load error becomes a bare failure status.
func encodeMappedMeta(pf *physFile, lerr error, k int, lis []int64) []int64 {
	if lerr != nil {
		return []int64{1, int64(k), 0}
	}
	vals := []int64{0, int64(k), int64(len(lis))}
	for _, li := range lis {
		if li >= int64(pf.h.NTasksLocal) {
			return []int64{2, int64(k), 0} // mapping points outside the segment
		}
		bb := pf.m2.BlockBytes[li]
		vals = append(vals, pf.h.GlobalRanks[li], li, pf.h.ChunkSizes[li],
			pf.geo.start, pf.geo.stride, pf.geo.aligned[li], pf.geo.prefix[li],
			int64(len(bb)))
		vals = append(vals, bb...)
	}
	return vals
}

// decodeMappedMeta parses one metadata message for a multifile of ntasks
// tasks in nfiles physical files, validating every field so a malformed
// frame yields ErrCorrupt instead of a panic or a handle with wild offsets.
func decodeMappedMeta(vals []int64, ntasks, nfiles int) ([]mappedRankMeta, error) {
	if len(vals) < 3 {
		return nil, fmt.Errorf("%w: mapped metadata message truncated (%d words)", ErrCorrupt, len(vals))
	}
	if vals[0] != 0 {
		return nil, fmt.Errorf("%w: mapped metadata status %d for segment %d", ErrCorrupt, vals[0], vals[1])
	}
	if vals[1] < 0 || vals[1] >= int64(nfiles) {
		return nil, fmt.Errorf("%w: mapped metadata for segment %d of %d", ErrCorrupt, vals[1], nfiles)
	}
	nrec := vals[2]
	if nrec < 0 || nrec > int64(ntasks) {
		return nil, fmt.Errorf("%w: mapped metadata record count %d", ErrCorrupt, nrec)
	}
	out := make([]mappedRankMeta, 0, nrec)
	off := 3
	for i := int64(0); i < nrec; i++ {
		if off+8 > len(vals) {
			return nil, fmt.Errorf("%w: mapped metadata record %d truncated", ErrCorrupt, i)
		}
		rec := mappedRankMeta{
			global: int(vals[off]), local: int(vals[off+1]),
			chunkSize: vals[off+2], start: vals[off+3], stride: vals[off+4],
			aligned: vals[off+5], prefix: vals[off+6],
		}
		nb := vals[off+7]
		off += 8
		switch {
		case rec.global < 0 || rec.global >= ntasks,
			rec.local < 0 || rec.local >= ntasks,
			rec.chunkSize <= 0 || rec.chunkSize > maxChunkSize,
			rec.start < 0 || rec.stride <= 0 || rec.aligned <= 0 || rec.prefix < 0,
			nb < 0 || nb > 1<<24 || off+int(nb) > len(vals):
			return nil, fmt.Errorf("%w: mapped metadata record for rank %d implausible", ErrCorrupt, rec.global)
		}
		rec.blockBytes = append([]int64(nil), vals[off:off+int(nb)]...)
		for _, b := range rec.blockBytes {
			if b < 0 || b > rec.aligned {
				return nil, fmt.Errorf("%w: mapped metadata block bytes %d exceed chunk %d", ErrCorrupt, b, rec.aligned)
			}
		}
		off += int(nb)
		out = append(out, rec)
	}
	if off != len(vals) {
		return nil, fmt.Errorf("%w: mapped metadata message carries %d trailing words", ErrCorrupt, len(vals)-off)
	}
	return out, nil
}

// mappedRegion is one writer rank's chunk series on a collector: where its
// blocks live and, after the fetch, its assembled logical stream.
type mappedRegion struct {
	file     int
	dataOff0 int64 // file offset of block 0's data
	stride   int64
	bb       []int64
	base     []int64 // logical offset of each block's first byte
	stream   []byte
}

func newMappedRegion(file int, dataOff0, stride int64, bb []int64) *mappedRegion {
	r := &mappedRegion{file: file, dataOff0: dataOff0, stride: stride, bb: bb}
	r.base = make([]int64, len(bb))
	var total int64
	for b, n := range bb {
		r.base[b] = total
		total += n
	}
	r.stream = make([]byte, total)
	return r
}

// collectiveFetch is the read-side collective exchange of a mapped open:
// members describe their owned ranks' chunk series to their group's
// collector, which prefetches everything with one span read per
// (file, block) and scatters the logical streams. The status is shared —
// any failure (a member's metadata, the collector's opens or reads) fails
// every open in the group.
func (mf *MappedFile) collectiveFetch(group int, localErr bool) error {
	comm := mf.comm
	rank := comm.Rank()
	lead := rank - rank%group
	mf.collGroup, mf.collLead = group, rank == lead

	failErr := func() error {
		return fmt.Errorf("sion: %s %s: collective read failed in collector %d's group", mf.op, mf.name, lead)
	}

	if !mf.collLead {
		// Request: [status, nranks, per rank in owned order: file,
		// dataOff0, stride, nblocks, blockBytes...].
		req := []int64{0, int64(len(mf.owned))}
		if localErr {
			req = []int64{1, 0}
		} else {
			for _, h := range mf.handles {
				req = append(req, int64(h.filenum),
					h.geo.dataOff(geoIndex, 0), h.geo.stride, int64(len(h.readBytes)))
				req = append(req, h.readBytes...)
			}
		}
		comm.Send(lead, tagMappedReq, encodeInt64s(req))
		reply := comm.Recv(lead, tagMappedData)
		if status := decodeInt64s(reply[:8])[0]; status != 0 || localErr {
			return failErr()
		}
		// Streams arrive concatenated in owned order.
		off := int64(8)
		for _, h := range mf.handles {
			n := h.LogicalSize()
			h.setCollRead(reply[off : off+n])
			off += n
		}
		return nil
	}

	// Collector: gather its own regions (first, in owned order) and every
	// member's.
	end := lead + group
	if end > comm.Size() {
		end = comm.Size()
	}
	status := int64(0)
	if localErr {
		status = 1
	}
	var fetchErr error // the collector's own root cause, wrapped below
	var regions []*mappedRegion
	if !localErr {
		for _, h := range mf.handles {
			regions = append(regions, newMappedRegion(h.filenum,
				h.geo.dataOff(geoIndex, 0), h.geo.stride, h.readBytes))
		}
	}
	memberRegions := make([][]*mappedRegion, end-lead-1) // by m-lead-1
	for m := lead + 1; m < end; m++ {
		vals := decodeInt64s(comm.Recv(m, tagMappedReq))
		if len(vals) < 2 || vals[0] != 0 {
			status = 1
			continue
		}
		off := 2
		for i := int64(0); i < vals[1]; i++ {
			if off+4 > len(vals) || off+4+int(vals[off+3]) > len(vals) || vals[off+3] < 0 {
				status = 1
				break
			}
			r := newMappedRegion(int(vals[off]), vals[off+1], vals[off+2], vals[off+4:off+4+int(vals[off+3])])
			off += 4 + int(vals[off+3])
			regions = append(regions, r)
			memberRegions[m-lead-1] = append(memberRegions[m-lead-1], r)
		}
	}
	if status == 0 {
		if err := mf.fetchRegions(regions); err != nil {
			status = 1
			fetchErr = err
		}
	}
	for i, regs := range memberRegions {
		reply := encodeInt64s([]int64{status})
		if status == 0 {
			for _, r := range regs {
				reply = append(reply, r.stream...)
			}
		}
		comm.Send(lead+1+i, tagMappedData, reply)
	}
	if status != 0 {
		// The collector knows the root cause; members only see the status
		// code (an error value cannot cross ranks), so only here can
		// callers errors.Is the backend sentinel.
		return withCause(failErr(), fetchErr)
	}
	for i, h := range mf.handles {
		h.setCollRead(regions[i].stream)
	}
	return nil
}

// collReadState serves a task's reads from the prefetched logical stream
// its collector scattered at open.
type collReadState struct {
	buf  []byte
	base []int64 // logical offset of each block's first byte (prefix sums)
}

// setCollRead installs the prefetched stream and its per-block offsets.
func (f *File) setCollRead(buf []byte) {
	st := &collReadState{buf: buf, base: make([]int64, len(f.readBytes))}
	var off int64
	for b, n := range f.readBytes {
		st.base[b] = off
		off += n
	}
	f.collRead = st
}

// fetchRegions fills every region's stream with as few physical reads as
// the layout allows: regions are grouped by physical file, and each block
// is fetched as one span read covering every group-owned chunk in it —
// contiguous ownership makes the span dense, so a collector issues at most
// (files × blocks) reads however many ranks its group owns.
func (mf *MappedFile) fetchRegions(regions []*mappedRegion) error {
	byFile := make(map[int][]*mappedRegion)
	var files []int
	for _, r := range regions {
		if len(byFile[r.file]) == 0 {
			files = append(files, r.file)
		}
		byFile[r.file] = append(byFile[r.file], r)
	}
	sort.Ints(files)
	for _, k := range files {
		fh, err := mf.fsys.Open(fileName(mf.name, k))
		if err != nil {
			return fmt.Errorf("opening physical file %d: %w", k, err)
		}
		err = fetchFileSpans(fh, byFile[k])
		fh.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchFileSpans reads one physical file's share of the regions, block by
// block: the block's owned chunk regions are merged into dense runs whose
// internal gaps stay below DefaultSpanGap (CoalesceExtents, span.go — the
// same gap-splitting logic internal/serve uses for cache-miss batching),
// one read per run.
func fetchFileSpans(fh fsio.File, regs []*mappedRegion) error {
	maxBlocks := 0
	for _, r := range regs {
		if len(r.bb) > maxBlocks {
			maxBlocks = len(r.bb)
		}
	}
	for b := 0; b < maxBlocks; b++ {
		var exts []Extent
		for i, r := range regs {
			if b < len(r.bb) && r.bb[b] > 0 {
				exts = append(exts, Extent{Off: r.dataOff0 + int64(b)*r.stride, Len: r.bb[b], Idx: i})
			}
		}
		for _, sp := range CoalesceExtents(exts, DefaultSpanGap) {
			buf := stageBufs.Get(sp.End - sp.Off)
			if err := readAtZeroFill(fh, buf, sp.Off); err != nil {
				stageBufs.Put(buf)
				return fmt.Errorf("span read at %d: %w", sp.Off, err)
			}
			for _, e := range sp.Extents {
				r := regs[e.Idx]
				copy(r.stream[r.base[b]:r.base[b]+r.bb[b]], buf[e.Off-sp.Off:])
			}
			stageBufs.Put(buf)
		}
	}
	return nil
}

// --- Accessors and lifecycle -------------------------------------------------

// NTasks returns N, the writer task count recorded in the multifile.
func (mf *MappedFile) NTasks() int { return mf.ntasks }

// NumFiles returns the number of physical files of the multifile.
func (mf *MappedFile) NumFiles() int { return mf.nfiles }

// FSBlockSize returns the block size chunks are aligned to.
func (mf *MappedFile) FSBlockSize() int64 { return mf.fsblk }

// OwnedRanks returns the original writer ranks this reader owns, ascending.
func (mf *MappedFile) OwnedRanks() []int { return append([]int(nil), mf.owned...) }

// Collective reports the collector group size in effect (0 = direct) and
// whether this reader acts as a collector.
func (mf *MappedFile) Collective() (group int, collector bool) {
	return mf.collGroup, mf.collLead
}

// Rank returns the read handle for original writer rank g. The handle
// stays owned by the MappedFile: closing it individually is allowed and
// leaves the shared physical files open until (*MappedFile).Close.
func (mf *MappedFile) Rank(g int) (*File, error) {
	if mf.closed {
		return nil, fmt.Errorf("sion: %s: mapped handle is closed", mf.name)
	}
	i, ok := slices.BinarySearch(mf.owned, g)
	if !ok {
		return nil, fmt.Errorf("sion: %s: writer rank %d is not owned by reader %d", mf.name, g, mf.comm.Rank())
	}
	return mf.handles[i], nil
}

// Close releases every rank handle and the shared physical files. It is
// not collective: mapped handles are read-only, so no peer depends on this
// reader's close.
func (mf *MappedFile) Close() error {
	if mf.closed {
		return nil
	}
	mf.closed = true
	for _, h := range mf.handles {
		if h != nil {
			h.closed = true
			h.dropStaging()
		}
	}
	var firstErr error
	for _, fh := range mf.fhs {
		firstErr = closeKeep(fh, firstErr)
	}
	mf.fhs = nil
	return firstErr
}

// --- Local (no-communicator) mapped core ------------------------------------

// mappedLocal is the single-process mapped view underlying OpenRank, the
// serial Open and Create: segments plus one handle per owned rank, sharing
// one open file per segment.
type mappedLocal struct {
	ntasks, nfiles int
	fsblk          int64
	flags          uint64
	mapping        []FileLoc
	segs           []*physFile // by file number; nil = not loaded
	handles        map[int]*File
}

// loadSegment opens one physical file and parses metablocks 1 and 2. The
// returned physFile keeps the file handle open; the caller owns it.
func loadSegment(fsys fsio.FileSystem, name string, k int) (*physFile, error) {
	fh, err := fsys.Open(fileName(name, k))
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", k, err)
	}
	h, err := parseHeader(fh)
	if err != nil {
		fh.Close()
		return nil, fmt.Errorf("segment %d: %w", k, err)
	}
	m2, err := readTail(fh, int(h.NTasksLocal))
	if err != nil {
		fh.Close()
		return nil, fmt.Errorf("segment %d: %w", k, err)
	}
	return &physFile{fh: fh, h: h, geo: newGeometry(h), m2: m2}, nil
}

// rankView builds a File over local rank li of segment k: a read view when
// the segment's metablock 2 was parsed, else a write view at block 0 (the
// serial Create). It shares the segment's open file (fhShared), so the
// owning container closes it exactly once.
func (pf *physFile) rankView(fsys fsio.FileSystem, caps fsio.Capabilities, name string, k, li, global int) *File {
	f := &File{
		fsys: fsys, fh: pf.fh, fhShared: true, name: name, mode: ReadMode,
		local: li, global: global,
		filenum: k, nfiles: int(pf.h.NFiles), fsblk: pf.h.FSBlockSize,
		requested: pf.h.ChunkSizes[li], chunkHdrs: pf.h.Flags&flagChunkHeaders != 0,
		geo: geometry{
			fsblk: pf.h.FSBlockSize, start: pf.geo.start, stride: pf.geo.stride,
			aligned: []int64{pf.geo.aligned[li]}, prefix: []int64{pf.geo.prefix[li]},
			headers: pf.geo.headers,
		},
		directRead: DirectReadBytes(caps, pf.h.FSBlockSize),
	}
	if pf.m2 == nil {
		f.mode, f.blockBytes = WriteMode, []int64{0}
	} else {
		f.readBytes = append([]int64(nil), pf.m2.BlockBytes[li]...)
	}
	return f
}

// openMappedLocal parses the segments holding the owned ranks (nil = every
// rank, loading every segment — the serial global view) and builds the
// per-rank handles.
func openMappedLocal(fsys fsio.FileSystem, name string, owned []int) (*mappedLocal, error) {
	fh0, err := fsys.Open(fileName(name, 0))
	if err != nil {
		return nil, err
	}
	h0, err := parseHeader(fh0)
	if err != nil {
		fh0.Close()
		return nil, err
	}
	ml := &mappedLocal{
		ntasks: int(h0.NTasksGlobal), nfiles: int(h0.NFiles),
		fsblk: h0.FSBlockSize, flags: h0.Flags, mapping: h0.Mapping,
		segs:    make([]*physFile, h0.NFiles),
		handles: make(map[int]*File),
	}
	all := owned == nil
	if all {
		owned = make([]int, ml.ntasks)
		for g := range owned {
			owned[g] = g
		}
	}
	var needed []int
	if all {
		needed = make([]int, ml.nfiles)
		for k := range needed {
			needed[k] = k
		}
	} else {
		seen := make(map[int]bool)
		for _, g := range owned {
			if g < 0 || g >= ml.ntasks {
				fh0.Close()
				return nil, fmt.Errorf("rank %d outside 0..%d", g, ml.ntasks-1)
			}
			if k := int(ml.mapping[g].File); !seen[k] {
				seen[k] = true
				needed = append(needed, k)
			}
		}
		sort.Ints(needed)
	}
	fail := func(err error) (*mappedLocal, error) {
		ml.closeAll()
		if ml.segs[0] == nil { // fh0 not yet owned by a segment entry
			fh0.Close()
		}
		return nil, err
	}
	for _, k := range needed {
		var pf *physFile
		if k == 0 {
			m2, terr := readTail(fh0, int(h0.NTasksLocal))
			if terr != nil {
				return fail(terr)
			}
			pf = &physFile{fh: fh0, h: h0, geo: newGeometry(h0), m2: m2}
		} else {
			var lerr error
			if pf, lerr = loadSegment(fsys, name, k); lerr != nil {
				return fail(lerr)
			}
		}
		ml.segs[k] = pf
	}
	if ml.segs[0] == nil {
		fh0.Close() // only the mapping was needed from file 0
	}
	caps := fsio.CapabilitiesOf(fsys)
	for _, g := range owned {
		loc := ml.mapping[g]
		pf := ml.segs[int(loc.File)]
		if int(loc.LocalRank) >= int(pf.h.NTasksLocal) {
			ml.closeAll()
			return nil, fmt.Errorf("%w: task %d maps to local rank %d of segment %d (%d tasks)",
				ErrCorrupt, g, loc.LocalRank, loc.File, pf.h.NTasksLocal)
		}
		ml.handles[g] = pf.rankView(fsys, caps, name, int(loc.File), int(loc.LocalRank), g)
	}
	return ml, nil
}

// closeAll closes every loaded segment's file handle (error cleanup).
func (ml *mappedLocal) closeAll() {
	for _, pf := range ml.segs {
		if pf != nil {
			pf.fh.Close()
		}
	}
}
