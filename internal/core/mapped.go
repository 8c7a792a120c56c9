package sion

import (
	"fmt"
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
// no data moves when the task count changes.
//
// Two data paths mirror ParOpen's read side:
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
//     handles serve reads from memory. Like ParOpen's collective read,
//     this prefetches complete streams at open, so it is meant for
//     restart-scale volumes, and a failure anywhere in a group fails the
//     whole group's open.
//
// SerialFile's read path and OpenRank are the no-communicator special
// cases of the same machinery (openMappedLocal): the serial global view is
// "one reader owns every rank", OpenRank is "one reader owns one rank".

// Message tags for the mapped-open exchanges.
const (
	tagMappedMeta = 4301 // parser → reader: per-file geometry records
	tagMappedReq  = 4302 // member → collector: owned-rank region requests
	tagMappedData = 4303 // collector → member: prefetched streams
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

	ntasks int // N: writer tasks recorded in the multifile
	nfiles int
	fsblk  int64

	owned   []int             // sorted original writer ranks owned by this reader
	handles map[int]*File     // per owned rank
	fhs     map[int]fsio.File // direct mode: one shared handle per physical file

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
// Unlike ParOpen, neither open nor Close performs a global barrier beyond
// the metadata exchange: in direct mode a reader whose metadata fails
// errors alone; in collective mode a failure fails the collector's whole
// group (whose members would otherwise hold handles served by nobody).
func ParOpenMapped(comm *mpi.Comm, fsys fsio.FileSystem, name string, mode Mode, owned []int, opts *Options) (*MappedFile, error) {
	if mode != ReadMode {
		return nil, fmt.Errorf("sion: ParOpenMapped %s: unsupported mode %v (mapped open reads an existing multifile)", name, mode)
	}
	caps := fsio.CapabilitiesOf(fsys)
	o, err := opts.withDefaults(comm.Size(), caps)
	if err != nil {
		return nil, err
	}

	// Rank 0 parses file 0's metablock 1 and broadcasts the layout basics,
	// the resolved collector group, and the full global mapping: with M≠N
	// no reader can assume its own placement exists, so everyone needs the
	// table (format.go's mapping codec, validated on every rank).
	hdr := make([]int64, 6)
	var mapEnc []byte
	if comm.Rank() == 0 {
		fh, oerr := fsys.Open(fileName(name, 0))
		if oerr != nil {
			hdr[0] = 1
		} else {
			h, perr := parseHeader(fh)
			fh.Close()
			if perr != nil {
				hdr[0] = 2
			} else {
				// CollectorAuto sizing: reuse the write-side heuristic with
				// file 0's average aligned chunk as the representative, so
				// the resolved group is identical on every reader.
				avg := newGeometry(h).stride / int64(h.NTasksLocal)
				group := resolveCollectorGroup(o.CollectorGroup, comm.Size(), avg*int64(comm.Size()), h.FSBlockSize)
				hdr = []int64{0, int64(h.NTasksGlobal), int64(h.NFiles), h.FSBlockSize, int64(h.Flags), int64(group)}
				mapEnc = encodeMapping(h.Mapping)
			}
		}
	}
	hdr = decodeInt64s(comm.Bcast(0, encodeInt64s(hdr)))
	mapEnc = comm.Bcast(0, mapEnc)
	if hdr[0] != 0 {
		return nil, fmt.Errorf("sion: ParOpenMapped %s failed (status %d: missing file or corrupt header)", name, hdr[0])
	}
	ntasks, nfiles, fsblk := int(hdr[1]), int(hdr[2]), hdr[3]
	flags, group := uint64(hdr[4]), int(hdr[5])
	mapping, err := decodeMapping(mapEnc, ntasks, nfiles)
	if err != nil {
		return nil, fmt.Errorf("sion: ParOpenMapped %s: %w", name, err)
	}

	// Ownership: gather every reader's claimed ranks at rank 0, which
	// validates range and global disjointness and broadcasts the owner
	// table (owner[g] = reader rank, -1 unowned).
	if owned == nil {
		owned = BalancedMapping(comm.Rank(), comm.Size(), ntasks)
	} else {
		owned = append([]int(nil), owned...)
		sort.Ints(owned)
	}
	claim := make([]int64, len(owned))
	for i, g := range owned {
		claim[i] = int64(g)
	}
	parts := comm.Gatherv(0, encodeInt64s(claim))
	var ownerEnc []byte
	if comm.Rank() == 0 {
		status := int64(0)
		owner := make([]int64, ntasks)
		for g := range owner {
			owner[g] = -1
		}
		for r, p := range parts {
			for _, gv := range decodeInt64s(p) {
				if gv < 0 || gv >= int64(ntasks) || owner[gv] != -1 {
					status = 1
					continue
				}
				owner[gv] = int64(r)
			}
		}
		ownerEnc = encodeInt64s(append([]int64{status}, owner...))
	}
	ownerVals := decodeInt64s(comm.Bcast(0, ownerEnc))
	if ownerVals[0] != 0 {
		return nil, fmt.Errorf("sion: ParOpenMapped %s: invalid ownership (a writer rank outside 0..%d, or owned by two readers)", name, ntasks-1)
	}
	owner := ownerVals[1:]

	// Deterministic work split every reader computes identically: which
	// readers need which physical file, and who parses it (file k's
	// metadata is parsed once, by reader k mod M, and fanned out).
	needs := make([][]int, nfiles)
	inNeed := make([]map[int]bool, nfiles)
	for g, w := range owner {
		if w < 0 {
			continue
		}
		k := int(mapping[g].File)
		if inNeed[k] == nil {
			inNeed[k] = make(map[int]bool)
		}
		if !inNeed[k][int(w)] {
			inNeed[k][int(w)] = true
			needs[k] = append(needs[k], int(w))
		}
	}
	mineByFile := make(map[int][]int)
	var myFiles []int
	for _, g := range owned {
		k := int(mapping[g].File)
		if len(mineByFile[k]) == 0 {
			myFiles = append(myFiles, k)
		}
		mineByFile[k] = append(mineByFile[k], g)
	}
	sort.Ints(myFiles)

	// Parse assigned files and fan the per-rank records out (sends are
	// eager, so all parsers send before anyone blocks in Recv below).
	for k := 0; k < nfiles; k++ {
		if len(needs[k]) == 0 || k%comm.Size() != comm.Rank() {
			continue
		}
		pf, lerr := loadSegment(fsys, name, k)
		if lerr == nil && int(pf.h.NTasksGlobal) != ntasks {
			lerr = fmt.Errorf("%w: segment %d disagrees on task count", ErrCorrupt, k)
		}
		sort.Ints(needs[k])
		for _, r := range needs[k] {
			comm.Send(r, tagMappedMeta, encodeInt64s(encodeMappedMeta(pf, lerr, k, owner, mapping, r)))
		}
		if pf != nil {
			pf.fh.Close()
		}
	}

	// Collect this reader's records; drain every expected message even
	// after a failure so no stray frame outlives the open.
	handles := make(map[int]*File, len(owned))
	metaFailed := false
	for _, k := range myFiles {
		vals := decodeInt64s(comm.Recv(k%comm.Size(), tagMappedMeta))
		recs, derr := decodeMappedMeta(vals, ntasks, k)
		if derr != nil {
			metaFailed = true
			continue
		}
		hdrs := flags&flagChunkHeaders != 0
		for _, rec := range recs {
			handles[rec.global] = &File{
				fsys: fsys, name: name, mode: ReadMode,
				local: rec.local, global: rec.global,
				filenum: k, nfiles: nfiles, fsblk: fsblk,
				requested: rec.chunkSize, chunkHdrs: hdrs,
				geo: geometry{
					fsblk: fsblk, start: rec.start, stride: rec.stride,
					aligned: []int64{rec.aligned}, prefix: []int64{rec.prefix},
					headers: hdrs,
				},
				readBytes:  rec.blockBytes,
				fhShared:   true,
				directRead: DirectReadBytes(caps, fsblk),
			}
		}
	}
	if !metaFailed {
		for _, g := range owned {
			if handles[g] == nil {
				metaFailed = true // parser omitted a rank we own
			}
		}
	}

	mf := &MappedFile{
		fsys: fsys, comm: comm, name: name,
		ntasks: ntasks, nfiles: nfiles, fsblk: fsblk,
		owned: owned, handles: handles,
	}
	if group > 1 {
		// The collective exchange runs even for a reader whose metadata
		// failed: its group must learn about the failure, or the collector
		// would block on a request that never comes.
		if err := mf.collectiveFetch(group, metaFailed); err != nil {
			return nil, err
		}
		return mf, nil
	}
	if metaFailed {
		return nil, fmt.Errorf("sion: ParOpenMapped %s: metadata exchange failed (corrupt or missing segment)", name)
	}
	mf.fhs = make(map[int]fsio.File, len(myFiles))
	for _, k := range myFiles {
		fh, oerr := fsys.Open(fileName(name, k))
		if oerr != nil {
			mf.Close()
			return nil, fmt.Errorf("sion: ParOpenMapped %s: opening physical file %d: %w", name, k, oerr)
		}
		mf.fhs[k] = fh
		for _, g := range mineByFile[k] {
			handles[g].fh = fh
		}
	}
	for _, g := range owned {
		handles[g].initStaging(o.BufferSize)
	}
	return mf, nil
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

// encodeMappedMeta builds the metadata message parser of file k sends to
// one reader: [status, filenum, nrec, then per owned rank of that reader
// in file k: g, lrank, chunkSize, start, stride, aligned, prefix, nblocks,
// blockBytes...]. A load error becomes a bare failure status.
func encodeMappedMeta(pf *physFile, lerr error, k int, owner []int64, mapping []FileLoc, reader int) []int64 {
	if lerr != nil {
		return []int64{1, int64(k), 0}
	}
	vals := []int64{0, int64(k), 0}
	nrec := int64(0)
	for g := range owner {
		if int(owner[g]) != reader || int(mapping[g].File) != k {
			continue
		}
		li := int(mapping[g].LocalRank)
		if li >= int(pf.h.NTasksLocal) {
			return []int64{2, int64(k), 0} // mapping points outside the segment
		}
		bb := pf.m2.BlockBytes[li]
		vals = append(vals, int64(g), int64(li), pf.h.ChunkSizes[li],
			pf.geo.start, pf.geo.stride, pf.geo.aligned[li], pf.geo.prefix[li],
			int64(len(bb)))
		vals = append(vals, bb...)
		nrec++
	}
	vals[2] = nrec
	return vals
}

// decodeMappedMeta parses one metadata message, validating every field so
// a malformed frame yields ErrCorrupt instead of a panic or a handle with
// wild offsets.
func decodeMappedMeta(vals []int64, ntasks, wantFile int) ([]mappedRankMeta, error) {
	if len(vals) < 3 {
		return nil, fmt.Errorf("%w: mapped metadata message truncated (%d words)", ErrCorrupt, len(vals))
	}
	if vals[0] != 0 {
		return nil, fmt.Errorf("%w: mapped metadata status %d for segment %d", ErrCorrupt, vals[0], vals[1])
	}
	if int(vals[1]) != wantFile {
		return nil, fmt.Errorf("%w: mapped metadata for segment %d, want %d", ErrCorrupt, vals[1], wantFile)
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
	member   int // requesting group member's comm rank; -1 = the collector
	global   int
	file     int
	dataOff0 int64 // file offset of block 0's data
	stride   int64
	bb       []int64
	base     []int64 // logical offset of each block's first byte
	stream   []byte
}

func newMappedRegion(member, global, file int, dataOff0, stride int64, bb []int64) *mappedRegion {
	r := &mappedRegion{member: member, global: global, file: file,
		dataOff0: dataOff0, stride: stride, bb: bb}
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
		return fmt.Errorf("sion: ParOpenMapped %s: collective mapped read failed in collector %d's group", mf.name, lead)
	}

	if !mf.collLead {
		// Request: [status, nranks, per rank: g, file, dataOff0, stride,
		// nblocks, blockBytes...] — same chunk arithmetic collReadRequest
		// ships on the same-cardinality path.
		req := []int64{0, int64(len(mf.owned))}
		if localErr {
			req = []int64{1, 0}
		} else {
			for _, g := range mf.owned {
				h := mf.handles[g]
				req = append(req, int64(g), int64(h.filenum),
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
		for _, g := range mf.owned {
			h := mf.handles[g]
			n := h.LogicalSize()
			h.setCollRead(reply[off : off+n])
			off += n
		}
		return nil
	}

	// Collector: gather its own and every member's regions.
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
		for _, g := range mf.owned {
			h := mf.handles[g]
			regions = append(regions, newMappedRegion(-1, g, h.filenum,
				h.geo.dataOff(geoIndex, 0), h.geo.stride, h.readBytes))
		}
	}
	var members []int
	memberRegions := make(map[int][]*mappedRegion)
	for m := lead + 1; m < end; m++ {
		members = append(members, m)
		vals := decodeInt64s(comm.Recv(m, tagMappedReq))
		if len(vals) < 2 || vals[0] != 0 {
			status = 1
			continue
		}
		off := 2
		for i := int64(0); i < vals[1]; i++ {
			if off+5 > len(vals) || off+5+int(vals[off+4]) > len(vals) || vals[off+4] < 0 {
				status = 1
				break
			}
			r := newMappedRegion(m, int(vals[off]), int(vals[off+1]),
				vals[off+2], vals[off+3], vals[off+5:off+5+int(vals[off+4])])
			off += 5 + int(vals[off+4])
			regions = append(regions, r)
			memberRegions[m] = append(memberRegions[m], r)
		}
	}
	if status == 0 {
		if err := mf.fetchRegions(regions); err != nil {
			status = 1
			fetchErr = err
		}
	}
	for _, m := range members {
		reply := encodeInt64s([]int64{status})
		if status == 0 {
			for _, r := range memberRegions[m] {
				reply = append(reply, r.stream...)
			}
		}
		comm.Send(m, tagMappedData, reply)
	}
	if status != 0 {
		if fetchErr != nil {
			// The collector knows the root cause; members only see the
			// status code (an error value cannot cross ranks), so only
			// here can callers errors.Is the backend sentinel.
			return fmt.Errorf("sion: ParOpenMapped %s: collective mapped read failed in collector %d's group: %w", mf.name, lead, fetchErr)
		}
		return failErr()
	}
	for _, r := range regions {
		if r.member == -1 {
			mf.handles[r.global].setCollRead(r.stream)
		}
	}
	return nil
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
			return fmt.Errorf("sion: ParOpenMapped %s: opening physical file %d: %w", mf.name, k, err)
		}
		err = fetchFileSpans(fh, byFile[k])
		fh.Close()
		if err != nil {
			return fmt.Errorf("sion: %s: collective mapped read: %w", mf.name, err)
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
	h := mf.handles[g]
	if h == nil {
		return nil, fmt.Errorf("sion: %s: writer rank %d is not owned by reader %d", mf.name, g, mf.comm.Rank())
	}
	return h, nil
}

// Close releases every rank handle and the shared physical files. It is
// not collective: mapped handles are read-only, so no peer depends on this
// reader's close.
func (mf *MappedFile) Close() error {
	if mf.closed {
		return nil
	}
	mf.closed = true
	for _, g := range mf.owned {
		if h := mf.handles[g]; h != nil {
			h.closed = true
			h.dropStaging()
		}
	}
	var firstErr error
	var files []int
	for k := range mf.fhs {
		files = append(files, k)
	}
	sort.Ints(files)
	for _, k := range files {
		if err := mf.fhs[k].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	mf.fhs = nil
	return firstErr
}

// --- Local (no-communicator) mapped core ------------------------------------

// mappedLocal is the single-process mapped view underlying OpenRank and
// the serial Open: parsed segments plus one read handle per owned rank,
// sharing one open file per segment.
type mappedLocal struct {
	ntasks, nfiles int
	fsblk          int64
	flags          uint64
	mapping        []FileLoc
	segs           map[int]*physFile
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

// rankView builds a read-mode File over local rank li of a parsed segment
// k. The handle shares the segment's open file (fhShared), so the owning
// container closes it exactly once.
func (pf *physFile) rankView(fsys fsio.FileSystem, caps fsio.Capabilities, name string, k, li, global int) *File {
	return &File{
		fsys: fsys, fh: pf.fh, fhShared: true, name: name, mode: ReadMode,
		local: li, global: global,
		filenum: k, nfiles: int(pf.h.NFiles), fsblk: pf.h.FSBlockSize,
		requested: pf.h.ChunkSizes[li], chunkHdrs: pf.h.Flags&flagChunkHeaders != 0,
		geo: geometry{
			fsblk: pf.h.FSBlockSize, start: pf.geo.start, stride: pf.geo.stride,
			aligned: []int64{pf.geo.aligned[li]}, prefix: []int64{pf.geo.prefix[li]},
			headers: pf.geo.headers,
		},
		readBytes:  append([]int64(nil), pf.m2.BlockBytes[li]...),
		directRead: DirectReadBytes(caps, pf.h.FSBlockSize),
	}
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
		segs:    make(map[int]*physFile),
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

// closeAll closes every segment file handle (error cleanup).
func (ml *mappedLocal) closeAll() {
	for _, pf := range ml.segs {
		pf.fh.Close()
	}
}
